// Command cwbench regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md for the experiment index):
//
//	cwbench                    # run everything
//	cwbench -only fig11        # one artifact: table1, fig3, fig4, fig5,
//	                           # example46, fig7, fig10, fig11, fig12
//	cwbench -sizes 16,32,64    # override the size sweep
//	cwbench -workers 8         # experiment worker-pool bound (0 = all cores)
//	cwbench -cpuprofile cw.pprof -only fig11  # pprof profile of a real sweep
//	cwbench -memprofile heap.pprof -only fig11  # post-GC heap profile at exit
//
// All experiment cells run on one shared concurrent runner, so artifacts
// that revisit a cell (Figure 11 and Figure 12 share their base/all cells)
// never recompile it, and output is byte-identical to a serial run. The
// runner is in-memory only: the whole evaluation is 28 cells and renders in
// well under a second, so there is nothing for a persistent store to save
// (cwserve keeps one, for daemon restarts).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"configwall/internal/accel/gemmini"
	"configwall/internal/core"
	"configwall/internal/roofline"
)

// artifact is one regenerable table/figure; run renders it to stdout.
type artifact struct {
	name  string
	title string
	run   func(b *bench) error
}

// bench carries the shared state of one cwbench invocation.
type bench struct {
	runner *core.Runner // the one runner every figure sweep shares
	sizes  []int        // overrides the per-figure defaults when non-empty
}

func (b *bench) pick(def []int) []int {
	if len(b.sizes) > 0 {
		return b.sizes
	}
	return def
}

// artifacts lists every artifact in presentation order; -only matches on
// name, and unknown names report this list.
var artifacts = []artifact{
	{name: "table1", title: "Table 1: fields of the gemmini_loop_ws sequence", run: func(*bench) error {
		fmt.Print(gemmini.Table1())
		return nil
	}},
	{name: "fig3", title: "Figure 3: processor roofline", run: func(*bench) error {
		m := roofline.Model{Name: "generic", PeakOps: 512, BWConfig: 1, BWMemory: 16}
		fmt.Println("P_attainable = min(peak, BW_memory x I_operational)")
		for _, iop := range []float64{0.5, 1, 2, 4, 8, 16, 32, 64, 128} {
			fmt.Printf("  I_op = %6.1f ops/B -> %6.1f ops/cycle\n", iop, roofline.Processor(m.PeakOps, m.BWMemory, iop))
		}
		return nil
	}},
	{name: "fig4", run: func(*bench) error {
		g, err := core.LookupTarget("gemmini")
		if err != nil {
			return err
		}
		fmt.Print(core.RenderFigure4(g.RooflineModel()))
		return nil
	}},
	{name: "fig5", run: func(*bench) error {
		o, err := core.LookupTarget("opengemm")
		if err != nil {
			return err
		}
		fmt.Print(core.RenderFigure5(o.RooflineModel(), 8))
		return nil
	}},
	{name: "example46", run: func(*bench) error {
		fmt.Print(core.RenderSection46())
		return nil
	}},
	{name: "fig7", title: "Figure 2/7: execution timelines before/after optimization", run: func(*bench) error {
		o, err := core.LookupTarget("opengemm")
		if err != nil {
			return err
		}
		out, err := core.RenderTimelines(o, 32, 100)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}},
	{name: "fig10", run: func(b *bench) error {
		rows, err := core.Figure10.With(context.Background(), b.runner, b.pick(core.Figure10Sizes))
		if err != nil {
			return err
		}
		fmt.Print(core.RenderFigure10(rows))
		return nil
	}},
	{name: "fig11", run: func(b *bench) error {
		rows, err := core.Figure11.With(context.Background(), b.runner, b.pick(core.Figure11Sizes))
		if err != nil {
			return err
		}
		fmt.Print(core.RenderFigure11(rows))
		return nil
	}},
	{name: "fig12", run: func(b *bench) error {
		data, err := core.Figure12With(context.Background(), b.runner, b.pick(core.Figure12Sizes))
		if err != nil {
			return err
		}
		fmt.Print(core.RenderFigure12(data))
		return nil
	}},
}

func artifactNames() []string {
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.name
	}
	return names
}

func main() {
	only := flag.String("only", "", "run a single artifact ("+strings.Join(artifactNames(), "|")+")")
	sizes := flag.String("sizes", "", "comma-separated matrix sizes overriding the per-figure defaults")
	workers := flag.Int("workers", 0, "experiment worker-pool bound (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-GC live objects) to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal("-cpuprofile: %v", err)
		}
		// fatal() exits without running deferred stops; profile-truncation
		// on a fatal error is acceptable for a diagnostics flag.
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cwbench: closing %s: %v\n", *cpuprofile, err)
			}
		}()
	}

	if *memprofile != "" {
		// Written on normal return only (like -cpuprofile): a post-GC heap
		// profile shows what the pools and caches retain at steady state.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cwbench: -memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cwbench: -memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cwbench: closing %s: %v\n", *memprofile, err)
			}
		}()
	}

	b := &bench{runner: core.NewRunner(*workers)}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal("bad -sizes value %q: %v", s, err)
			}
			b.sizes = append(b.sizes, n)
		}
	}

	ran := false
	for _, a := range artifacts {
		if *only != "" && *only != a.name {
			continue
		}
		ran = true
		section(a.title)
		if err := a.run(b); err != nil {
			fatal("%s: %v", a.name, err)
		}
	}
	if !ran {
		fatal("unknown artifact %q (valid artifacts: %s)", *only, strings.Join(artifactNames(), ", "))
	}
}

func section(title string) {
	fmt.Println()
	if title != "" {
		fmt.Println(title)
	}
	fmt.Println(strings.Repeat("=", 76))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cwbench: "+format+"\n", args...)
	os.Exit(1)
}
