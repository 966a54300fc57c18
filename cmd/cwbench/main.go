// Command cwbench regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md for the experiment index):
//
//	cwbench                    # run everything
//	cwbench -only fig11        # one artifact: table1, fig3, fig4, fig5,
//	                           # example46, fig7, fig10, fig11, fig12
//	cwbench -sizes 16,32,64    # override the size sweep
//	cwbench -workers 8         # experiment worker-pool bound (0 = all cores)
//	cwbench -cache-dir .cwcache  # persist results; reruns recompute nothing
//	cwbench -cache-dir .cwcache -shard 0/4   # precompute 1/4 of the grid
//	cwbench -cache-stats       # report cache hit/miss/run counters
//	cwbench -engine ref        # run every experiment on the reference interpreter
//	cwbench -cache-dir .cwcache -store-ls    # list the stored entries
//	cwbench -cpuprofile cw.pprof -only fig11  # pprof profile of a real sweep
//	cwbench -memprofile heap.pprof -only fig11  # post-GC heap profile at exit
//	cwbench -calibrate model.json             # fit the analytical tier,
//	                                          # print constants + held-out
//	                                          # error report, write model
//	cwbench -fidelity screen -model model.json -only fig11  # zero-sim sweep
//	cwbench -fidelity topk -topk 8 -model model.json -only fig11
//
// All experiment cells run on one shared concurrent runner, so artifacts
// that revisit a cell (Figure 11 and Figure 12 share their base/all cells)
// never recompile it, and output is byte-identical to a serial run. With
// -cache-dir the runner is additionally backed by a persistent store: a
// repeated invocation simulates nothing, and a crashed or sharded sweep
// resumes exactly where the stored cells end. -shard i/m computes only the
// i-th stride of the figure grid and renders nothing — run one process per
// shard against the same -cache-dir, then a final plain invocation renders
// every figure from the store.
//
// -fidelity screen|topk answers the selected figures' whole grid once
// through Runner.RunTopK (screen is k = 0) and renders from exactly those
// answers, so stdout is a function of the flags and the model: the same
// with -model FILE and with the in-process fit of the same seed, whatever
// the calibration left in the runner (CI compares the two).
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
	"configwall/internal/sim"
	"configwall/internal/store"
)

// artifact is one regenerable table/figure; run renders it to stdout, and
// grid (optional) lists its experiment cells for sharded precomputation.
type artifact struct {
	name  string
	title string
	run   func(b *bench) error
	grid  func(b *bench) []core.Experiment
}

// bench carries the shared state of one cwbench invocation.
type bench struct {
	// runner simulates (calibration, -shard, the cells -fidelity topk
	// chooses) and is what -cache-stats reports.
	runner *core.Runner
	// figures is the runner the figure sweeps read: runner itself, or under
	// -fidelity screen/topk a private store-less runner preloaded with that
	// one sweep's answers (setupFidelity).
	figures *core.Runner
	sizes   []int           // overrides the per-figure defaults when non-empty
	opts    core.RunOptions // shared run options (engine selection)
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
		rows, err := core.Figure10With(context.Background(), b.figures, b.pick(core.Figure10Sizes), b.opts)
		if err != nil {
			return err
		}
		fmt.Print(core.RenderFigure10(rows))
		return nil
	}, grid: func(b *bench) []core.Experiment {
		return core.Figure10Experiments(b.pick(core.Figure10Sizes))
	}},
	{name: "fig11", run: func(b *bench) error {
		rows, err := core.Figure11With(context.Background(), b.figures, b.pick(core.Figure11Sizes), b.opts)
		if err != nil {
			return err
		}
		fmt.Print(core.RenderFigure11(rows))
		return nil
	}, grid: func(b *bench) []core.Experiment {
		return core.Figure11Experiments(b.pick(core.Figure11Sizes))
	}},
	{name: "fig12", run: func(b *bench) error {
		data, err := core.Figure12With(context.Background(), b.figures, b.pick(core.Figure12Sizes), b.opts)
		if err != nil {
			return err
		}
		fmt.Print(core.RenderFigure12(data))
		return nil
	}, grid: func(b *bench) []core.Experiment {
		return core.Figure12Experiments(b.pick(core.Figure12Sizes))
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
	cacheDir := flag.String("cache-dir", "", "directory of the persistent experiment-result store (empty = in-memory only)")
	shardSpec := flag.String("shard", "", "precompute shard i/m of the figure grid into -cache-dir and render nothing (e.g. 0/4)")
	cacheStats := flag.Bool("cache-stats", false, "print runner cache statistics after the run")
	engineName := flag.String("engine", sim.Engine(0).String(), "simulator engine for every experiment ("+strings.Join(sim.EngineNames(), "|")+")")
	storeLS := flag.Bool("store-ls", false, "list the entries of -cache-dir (sorted by cache key) and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-GC live objects) to this file at exit")
	calibrate := flag.String("calibrate", "", "fit the analytical tier against the simulator, print constants + held-out error report, write the model JSON here, and exit (non-zero on band violation)")
	fidelity := flag.String("fidelity", "full", "prediction tier for figure sweeps (full|screen|topk, DESIGN.md §10)")
	topK := flag.Int("topk", 8, "cells simulated per figure grid with -fidelity topk")
	modelPath := flag.String("model", "", "calibrated analytic model JSON for -fidelity screen/topk (empty = calibrate in-process first)")
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

	engine, err := sim.EngineByName(*engineName)
	if err != nil {
		// Mirror the unknown -only behavior: fail fast, listing the valid
		// names, so a mistyped service config never runs the wrong engine.
		fatal("%v", err)
	}

	ropts := core.RunnerOptions{Workers: *workers}
	var st *store.DiskStore
	if *cacheDir != "" {
		if st, err = store.Open(*cacheDir); err != nil {
			fatal("%v", err)
		}
		ropts.Store = st
	}
	if *storeLS {
		if st == nil {
			fatal("-store-ls requires -cache-dir")
		}
		if err := listStore(st); err != nil {
			fatal("%v", err)
		}
		return
	}
	b := &bench{runner: core.NewRunnerWith(ropts), opts: core.RunOptions{Engine: engine}}
	b.figures = b.runner
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal("bad -sizes value %q: %v", s, err)
			}
			b.sizes = append(b.sizes, n)
		}
	}

	if *calibrate != "" {
		if err := runCalibrate(b.runner, *calibrate); err != nil {
			fatal("-calibrate: %v", err)
		}
		return
	}
	if err := setupFidelity(b, *fidelity, *modelPath, *topK, *only, *shardSpec != ""); err != nil {
		fatal("%v", err)
	}

	if *shardSpec != "" {
		if *cacheDir == "" {
			fatal("-shard requires -cache-dir (shards only communicate through the store)")
		}
		if err := precomputeShard(b, *only, *shardSpec); err != nil {
			fatal("%v", err)
		}
	} else {
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

	if *cacheStats {
		fmt.Fprintf(os.Stderr, "cwbench: cache: %s\n", b.runner.Snapshot())
	}
}

// precomputeShard runs one strided shard of the selected artifacts'
// experiment grid, filling the persistent store without rendering.
func precomputeShard(b *bench, only, spec string) error {
	i, m, err := parseShard(spec)
	if err != nil {
		return err
	}
	if only != "" {
		known := false
		for _, a := range artifacts {
			known = known || a.name == only
		}
		if !known {
			return fmt.Errorf("unknown artifact %q (valid artifacts: %s)", only, strings.Join(artifactNames(), ", "))
		}
	}
	grid := figureGrid(b, only)
	if len(grid) == 0 {
		return fmt.Errorf("no experiment grid to shard (artifact %q has no sweep)", only)
	}
	part, err := core.Shard(grid, i, m)
	if err != nil {
		return err
	}
	if _, err := b.runner.RunAll(context.Background(), part, b.opts); err != nil {
		return err
	}
	s := b.runner.Snapshot()
	fmt.Printf("shard %d/%d: %d of %d grid cells (%d computed, %d already stored)\n",
		i, m, len(part), len(grid), s.Runs, s.StoreHits)
	return nil
}

// parseShard parses "i/m".
func parseShard(spec string) (i, m int, err error) {
	parts := strings.SplitN(spec, "/", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -shard %q: want i/m (e.g. 0/4)", spec)
	}
	i, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err == nil {
		m, err = strconv.Atoi(strings.TrimSpace(parts[1]))
	}
	if err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: %v", spec, err)
	}
	return i, m, nil
}

// figureGrid unions (and dedupes) the experiment cells of every selected
// artifact that has a sweep, preserving presentation order.
func figureGrid(b *bench, only string) []core.Experiment {
	seen := map[core.Experiment]bool{}
	var grid []core.Experiment
	for _, a := range artifacts {
		if a.grid == nil || (only != "" && only != a.name) {
			continue
		}
		for _, e := range a.grid(b) {
			if !seen[e] {
				seen[e] = true
				grid = append(grid, e)
			}
		}
	}
	return grid
}

// listStore prints every enumerable entry of the persistent store, one
// line per cell in sorted cache-key order, for cache inspection.
func listStore(st *store.DiskStore) error {
	n := 0
	err := st.Each(func(e store.Entry) error {
		n++
		fmt.Printf("%-32s engine=%-4s trace=%-5t skipverify=%-5t cycles=%-10d verified=%t\n",
			e.Experiment, e.Options.Engine, e.Options.RecordTrace, e.Options.SkipVerify,
			e.Result.Cycles, e.Result.Verified)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("total: %d entries in %s\n", n, st.Dir())
	return nil
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
