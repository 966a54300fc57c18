// Command cwfuzz runs differential-verification campaigns: it generates
// seeded random accfg programs (internal/irgen), runs each through the
// Baseline pipeline and every optimization pipeline on the co-simulator,
// and checks observational equivalence plus the paper's metamorphic claims
// (internal/difftest). Every compiled program additionally executes on
// every registered simulator engine (reference interpreter and predecoded
// fast engine, DESIGN.md §6) and any disagreement in counters, final
// memory or summarized trace is a divergence — engine equivalence is a
// standing campaign invariant. The
// static config-state checker (internal/analysis) runs as a pre-oracle on
// every pipeline: statically rejected cases are reported without
// co-simulation, and every co-simulated case's dynamic outcome is
// cross-checked against the static verdict — a contradiction
// (static-disagree) fails the campaign even when no other divergence does.
// Programs execute concurrently on the shared
// experiment worker pool, but reports are input-ordered and byte-identical
// across runs with the same flags.
//
//	cwfuzz -seed 1 -n 500                  # full campaign, both targets
//	cwfuzz -seed 1 -n 200 -target gemmini  # one target
//	cwfuzz -corpus fuzz-corpus             # write minimized failures there
//	cwfuzz -replay corpus/gemmini-s42.ir   # re-check one saved module
//
// A failing program is automatically shrunk (delete launch blocks, loops,
// branches and fields while the divergence reproduces) and the minimized
// module is written to the corpus directory as <accel>-s<seed>.ir; the
// difftest corpus test replays those files forever after. Exit status is
// nonzero when any program diverges or fails to establish a baseline.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"configwall/internal/core"
	"configwall/internal/difftest"
	"configwall/internal/ir"
	"configwall/internal/irgen"
	"configwall/internal/sim"
)

type programResult struct {
	index  int
	seed   int64
	stats  irgen.Stats
	report difftest.Report
	genErr error
}

func main() {
	seed := flag.Int64("seed", 1, "campaign seed; program i of target t runs irgen.DeriveSeed(seed, t, i)")
	n := flag.Int("n", 100, "programs per target")
	target := flag.String("target", "", "restrict to one registered target (default: all with a generator profile)")
	workers := flag.Int("workers", 0, "worker-pool bound (0 = GOMAXPROCS)")
	corpus := flag.String("corpus", "", "directory for minimized failing modules (empty = don't write)")
	replay := flag.String("replay", "", "re-check one corpus module (<accel>-s<seed>.ir) instead of running a campaign")
	verbose := flag.Bool("v", false, "per-program output")
	flag.Parse()

	if *replay != "" {
		os.Exit(replayFile(*replay))
	}

	targets := targetList(*target)
	pipes := make([]string, 0, len(difftest.OptimizationPipelines()))
	for _, p := range difftest.OptimizationPipelines() {
		pipes = append(pipes, p.String())
	}
	fmt.Printf("cwfuzz: campaign seed=%d n=%d targets=%s pipelines=%s engine-xcheck=%s\n",
		*seed, *n, strings.Join(targets, ","), strings.Join(pipes, ","), strings.Join(sim.EngineNames(), "/"))

	failed := false
	for _, tn := range targets {
		if !runCampaign(tn, *seed, *n, *workers, *corpus, *verbose) {
			failed = true
		}
	}
	if failed {
		fmt.Println("cwfuzz: FAIL")
		os.Exit(1)
	}
	fmt.Println("cwfuzz: PASS")
}

// targetList resolves the targets to fuzz, sorted (TargetNames is sorted).
func targetList(only string) []string {
	if only != "" {
		if _, err := irgen.ProfileFor(only); err != nil {
			fatal("%v", err)
		}
		if _, err := core.LookupTarget(only); err != nil {
			fatal("%v", err)
		}
		return []string{only}
	}
	var out []string
	for _, name := range core.TargetNames() {
		if _, err := irgen.ProfileFor(name); err == nil {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		fatal("no registered target has a generator profile")
	}
	return out
}

// runCampaign fuzzes one target; reports whether it was clean.
func runCampaign(tn string, seed int64, n, workers int, corpus string, verbose bool) bool {
	tgt, err := core.LookupTarget(tn)
	if err != nil {
		fatal("%v", err)
	}
	prof, err := irgen.ProfileFor(tn)
	if err != nil {
		fatal("%v", err)
	}

	results := make([]programResult, n)
	core.ParallelEach(context.Background(), n, workers, func(i int) {
		r := &results[i]
		r.index = i
		r.seed = irgen.DeriveSeed(seed, tn, i)
		prog, err := irgen.Generate(prof, r.seed)
		if err != nil {
			r.genErr = err
			return
		}
		r.stats = prog.Stats
		r.report = difftest.Check(tgt, prog, difftest.Options{})
	})

	var total irgen.Stats
	invalid, divergent, genErrs := 0, 0, 0
	proved, inconclusive, rejected, disagreements := 0, 0, 0, 0
	for i := range results {
		r := &results[i]
		total.Setups += r.stats.Setups
		total.Launches += r.stats.Launches
		total.Loops += r.stats.Loops
		total.Ifs += r.stats.Ifs
		for _, s := range r.report.Static {
			switch {
			case s.Rejected:
				rejected++
			case s.Proved:
				proved++
			default:
				inconclusive++
			}
			if s.Disagree {
				disagreements++
			}
		}
		switch {
		case r.genErr != nil:
			genErrs++
			fmt.Printf("%s: program %d (seed %d) GENERATOR ERROR: %v\n", tn, r.index, r.seed, r.genErr)
		case r.report.Invalid:
			invalid++
			fmt.Printf("%s: program %d (seed %d) BASELINE INVALID: %s\n", tn, r.index, r.seed, r.report.InvalidReason)
		case r.report.Diverged():
			divergent++
			fmt.Printf("%s: program %d (seed %d) DIVERGED:\n", tn, r.index, r.seed)
			for _, d := range r.report.Divergences {
				fmt.Printf("  %s\n", d)
			}
			shrinkAndSave(tgt, prof, r, corpus)
		case verbose:
			fmt.Printf("%s: program %d (seed %d) ok (%d setups, %d launches, %d loops, %d branches)\n",
				tn, r.index, r.seed, r.stats.Setups, r.stats.Launches, r.stats.Loops, r.stats.Ifs)
		}
	}

	checks := (n - invalid - genErrs) * len(difftest.OptimizationPipelines())
	fmt.Printf("%s: %d programs (%d setups, %d launches, %d loops, %d branches), %d pipeline checks, %d invalid, %d generator errors, %d divergent\n",
		tn, n, total.Setups, total.Launches, total.Loops, total.Ifs, checks, invalid, genErrs, divergent)
	fmt.Printf("%s: static verdicts: %d proved, %d inconclusive, %d rejected, %d disagreements\n",
		tn, proved, inconclusive, rejected, disagreements)
	return invalid == 0 && divergent == 0 && genErrs == 0 && disagreements == 0
}

// shrinkAndSave minimizes the first divergence of a failing program and
// writes the witness to the corpus directory.
func shrinkAndSave(tgt core.Target, prof irgen.Profile, r *programResult, corpus string) {
	prog, err := irgen.Generate(prof, r.seed)
	if err != nil {
		return
	}
	before := ir.CountOps(prog.Module)
	sh := difftest.Shrink(tgt, prog, r.report.Divergences[0], difftest.Options{})
	fmt.Printf("  shrunk %d -> %d ops (%d steps, %d attempts)\n", before, sh.Ops, sh.Steps, sh.Attempts)
	if corpus == "" {
		return
	}
	if err := os.MkdirAll(corpus, 0o755); err != nil {
		fmt.Printf("  corpus: %v\n", err)
		return
	}
	name := filepath.Join(corpus, difftest.CorpusName(tgt.Name, r.seed))
	if err := os.WriteFile(name, []byte(ir.PrintModule(sh.Module)), 0o644); err != nil {
		fmt.Printf("  corpus: %v\n", err)
		return
	}
	fmt.Printf("  wrote %s\n  reproduce: cwfuzz -replay %s\n", name, name)
}

// replayFile re-checks one corpus module; returns the process exit code.
func replayFile(file string) int {
	rep, err := difftest.Replay(file, difftest.Options{})
	if err != nil {
		fatal("%v", err)
	}
	if rep.Invalid {
		fmt.Printf("cwfuzz: %s: baseline invalid: %s\n", file, rep.InvalidReason)
		return 1
	}
	if rep.Diverged() {
		fmt.Printf("cwfuzz: %s: still diverges:\n", file)
		for _, d := range rep.Divergences {
			fmt.Printf("  %s\n", d)
		}
		return 1
	}
	fmt.Printf("cwfuzz: %s: clean (no divergence)\n", file)
	return 0
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cwfuzz: "+format+"\n", args...)
	os.Exit(1)
}
