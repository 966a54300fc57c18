// Command cwopt is an mlir-opt-style pass driver over the textual IR: it
// reads a module, runs a comma-separated pass pipeline, and prints the
// result.
//
//	cwopt -p accfg-trace-states,accfg-dedup input.ir
//	cwopt -analyze input.ir    # print per-launch abstract configs + bounds
//	cwopt -list                # list available passes
//	cwopt -help-ops            # list registered operations
//	echo '...' | cwopt -p cse  # reads stdin when no file is given
//
// Every pipeline runs under the static config-state checker (-check,
// on by default): after each pass the result is compared against the
// pass's input, and a provable launch-configuration divergence aborts the
// run. Use -check=false to reproduce a miscompile for debugging.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	_ "configwall/internal/dialects/accfg"
	_ "configwall/internal/dialects/arith"
	_ "configwall/internal/dialects/csrops"
	_ "configwall/internal/dialects/fnc"
	_ "configwall/internal/dialects/memref"
	_ "configwall/internal/dialects/rocc"
	_ "configwall/internal/dialects/scf"

	"configwall/internal/analysis"
	"configwall/internal/core"
	"configwall/internal/ir"
	"configwall/internal/lower"
	"configwall/internal/passes"
)

// available maps pipeline names to pass constructors. Overlap assumes every
// accelerator is concurrent when invoked from the command line; use the
// experiment engine for per-target capability handling.
var available = map[string]func() ir.Pass{
	"canonicalize":                      passes.Canonicalize,
	"cse":                               passes.CSE,
	"licm":                              passes.LICM,
	"inline":                            passes.Inline,
	"simplify-trivial-loops":            passes.SimplifyTrivialLoops,
	"accfg-trace-states":                passes.TraceStates,
	"accfg-dedup":                       passes.Dedup,
	"accfg-sink-setups-into-branches":   passes.SinkSetupsIntoBranches,
	"accfg-hoist-loop-invariant-fields": passes.HoistLoopInvariantFields,
	"accfg-merge-setups":                passes.MergeSetups,
	"accfg-remove-empty-setups":         passes.RemoveEmptySetups,
	"accfg-overlap":                     func() ir.Pass { return passes.Overlap(func(string) bool { return true }) },
}

// init adds one lower-accfg-to-<target> entry per target registered by the
// packages this driver links in (the built-ins, plus anything an imported
// package registers at init). Out-of-tree targets need an import added
// here to appear, since they register from their own main.
func init() {
	for _, name := range core.TargetNames() {
		t, err := core.LookupTarget(name)
		if err != nil || t.Port == nil {
			continue
		}
		available["lower-accfg-to-"+name] = func() ir.Pass { return lower.Accfg(t.Port) }
	}
}

func main() {
	pipeline := flag.String("p", "", "comma-separated pass pipeline")
	list := flag.Bool("list", false, "list available passes")
	helpOps := flag.Bool("help-ops", false, "list registered operations")
	verify := flag.Bool("verify", true, "verify the IR between passes")
	check := flag.Bool("check", true, "statically check each pass preserves launch configurations")
	analyze := flag.Bool("analyze", false, "print the per-launch abstract configuration report and exit (after -p, if given)")
	stats := flag.Bool("stats", false, "print per-pass op-count statistics to stderr")
	flag.Parse()

	if *list {
		for _, n := range availableNames() {
			fmt.Println(n)
		}
		return
	}
	if *helpOps {
		for _, n := range ir.RegisteredOps() {
			info, _ := ir.Lookup(n)
			fmt.Printf("%-28s %s\n", n, info.Summary)
		}
		return
	}

	var src []byte
	var err error
	if flag.NArg() > 0 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fatal("reading input: %v", err)
	}

	m, err := ir.Parse(string(src))
	if err != nil {
		fatal("%v", err)
	}
	if err := ir.Verify(m); err != nil {
		fatal("input does not verify: %v", err)
	}

	pm, err := buildPipeline(*pipeline, *verify)
	if err != nil {
		fatal("%v", err)
	}
	if *check {
		pm.CheckEach = analysis.PassCheck
	}
	if *stats {
		lines, err := pm.Log(m)
		if err != nil {
			fatal("%v", err)
		}
		for _, line := range lines {
			fmt.Fprintln(os.Stderr, line)
		}
	} else if err := pm.Run(m); err != nil {
		fatal("%v", err)
	}
	if *analyze {
		fmt.Print(analysis.ReportString(m))
		return
	}
	fmt.Print(ir.PrintModule(m))
}

// availableNames returns the registered pipeline names, sorted.
func availableNames() []string {
	names := make([]string, 0, len(available))
	for n := range available {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildPipeline parses a comma-separated pass spec into a PassManager. An
// unknown pass name is an error listing every valid name (mirroring
// cwbench's unknown -only handling), so the driver exits non-zero instead
// of silently running a partial pipeline.
func buildPipeline(spec string, verifyEach bool) (*ir.PassManager, error) {
	pm := ir.NewPassManager()
	pm.VerifyEach = verifyEach
	if spec == "" {
		return pm, nil
	}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		ctor, ok := available[name]
		if !ok {
			return nil, fmt.Errorf("unknown pass %q (valid passes: %s)", name, strings.Join(availableNames(), ", "))
		}
		pm.Add(ctor())
	}
	return pm, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cwopt: "+format+"\n", args...)
	os.Exit(1)
}
