package configwall_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md for the experiment index), plus ablations over
// the design choices. Each benchmark reports the paper's metrics as custom
// units (ops/cycle, config bytes, speedup) so `go test -bench` regenerates
// the evaluation:
//
//	go test -bench 'Figure10' -benchmem .
//	go test -bench . -benchmem . > bench_output.txt
//
// Absolute cycle counts come from the deterministic co-simulator, so
// b.N repetitions measure harness wall-time while the reported custom
// metrics are the paper-relevant (stable) quantities.

import (
	"context"
	"fmt"
	"testing"

	"configwall"
	"configwall/internal/accel/gemmini"
	"configwall/internal/core"
	"configwall/internal/ir"
	"configwall/internal/roofline"
	"configwall/internal/workload"
)

// runOnce executes one experiment per benchmark iteration and reports the
// measured metrics of the final run.
func runOnce(b *testing.B, t configwall.Target, p configwall.Pipeline, n int) configwall.Result {
	b.Helper()
	var res configwall.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = configwall.RunTiledMatmul(t, p, n, configwall.RunOptions{SkipVerify: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkTable1 regenerates the gemmini_loop_ws field inventory.
func BenchmarkTable1_GemminiLoopWSFields(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(gemmini.FieldBits())
	}
	b.ReportMetric(float64(rows), "fields")
	if testing.Verbose() {
		b.Log("\n" + gemmini.Table1())
	}
}

// BenchmarkFigure3 samples the processor roofline.
func BenchmarkFigure3_ProcessorRoofline(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		for iop := 0.25; iop <= 1024; iop *= 2 {
			acc += roofline.Processor(512, 16, iop)
		}
	}
	b.ReportMetric(acc/float64(b.N), "sum_ops/cycle")
}

// BenchmarkFigure4 samples both configuration rooflines of Figure 4.
func BenchmarkFigure4_ConfigurationRoofline(b *testing.B) {
	m := core.GemminiTarget().RooflineModel()
	var knee float64
	for i := 0; i < b.N; i++ {
		_ = m.CurveSequential(1, 16384, 128)
		_ = m.CurveConcurrent(1, 16384, 128)
		knee = m.Knee()
	}
	b.ReportMetric(knee, "knee_I_OC")
}

// BenchmarkFigure5 samples the combined roofsurface.
func BenchmarkFigure5_Roofsurface(b *testing.B) {
	m := core.OpenGeMMTarget().RooflineModel()
	var cells int
	for i := 0; i < b.N; i++ {
		cells = len(m.Surface(0.25, 1024, 0.25, 16384, 16))
	}
	b.ReportMetric(float64(cells), "cells")
}

// BenchmarkSection46 evaluates the paper's worked example (41.5% / 26.7%).
func BenchmarkSection46_WorkedExample(b *testing.B) {
	var e core.Section46
	for i := 0; i < b.N; i++ {
		e = core.Section46Example()
	}
	b.ReportMetric(100*e.UtilRaw, "%attainable_raw")
	b.ReportMetric(100*e.UtilEff, "%attainable_eff")
}

// Figure 10: Gemmini attainable performance per size, baseline vs accfg.
func benchFigure10(b *testing.B, n int) {
	t := configwall.GemminiTarget()
	base := runOnce(b, t, configwall.Baseline, n)
	opt, err := configwall.RunTiledMatmul(t, configwall.AllOptimizations, n, configwall.RunOptions{SkipVerify: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(base.AttainableEq3(), "base_ops/cycle")
	b.ReportMetric(opt.AttainableEq3(), "accfg_ops/cycle")
	b.ReportMetric(opt.AttainableEq3()/base.AttainableEq3(), "speedup")
	b.ReportMetric(float64(base.ConfigBytes), "base_cfgB")
	b.ReportMetric(float64(opt.ConfigBytes), "accfg_cfgB")
}

func BenchmarkFigure10_Gemmini_32(b *testing.B)  { benchFigure10(b, 32) }
func BenchmarkFigure10_Gemmini_64(b *testing.B)  { benchFigure10(b, 64) }
func BenchmarkFigure10_Gemmini_128(b *testing.B) { benchFigure10(b, 128) }
func BenchmarkFigure10_Gemmini_256(b *testing.B) { benchFigure10(b, 256) }
func BenchmarkFigure10_Gemmini_512(b *testing.B) { benchFigure10(b, 512) }

// Figure 11: OpenGeMM measured performance per size, base vs optimized.
func benchFigure11(b *testing.B, n int) {
	t := configwall.OpenGeMMTarget()
	base := runOnce(b, t, configwall.Baseline, n)
	opt, err := configwall.RunTiledMatmul(t, configwall.AllOptimizations, n, configwall.RunOptions{SkipVerify: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(base.OpsPerCycle(), "base_ops/cycle")
	b.ReportMetric(opt.OpsPerCycle(), "opt_ops/cycle")
	b.ReportMetric(opt.OpsPerCycle()/base.OpsPerCycle(), "speedup")
}

func BenchmarkFigure11_OpenGeMM_16(b *testing.B)  { benchFigure11(b, 16) }
func BenchmarkFigure11_OpenGeMM_32(b *testing.B)  { benchFigure11(b, 32) }
func BenchmarkFigure11_OpenGeMM_64(b *testing.B)  { benchFigure11(b, 64) }
func BenchmarkFigure11_OpenGeMM_128(b *testing.B) { benchFigure11(b, 128) }
func BenchmarkFigure11_OpenGeMM_256(b *testing.B) { benchFigure11(b, 256) }
func BenchmarkFigure11_OpenGeMM_512(b *testing.B) { benchFigure11(b, 512) }

// Figure 12: the four pipeline variants on the roofline, per size.
func benchFigure12(b *testing.B, p configwall.Pipeline, n int) {
	t := configwall.OpenGeMMTarget()
	res := runOnce(b, t, p, n)
	b.ReportMetric(res.MeasuredIOC(), "I_OC_ops/B")
	b.ReportMetric(res.OpsPerCycle(), "ops/cycle")
}

func BenchmarkFigure12_Base_64(b *testing.B)     { benchFigure12(b, configwall.Baseline, 64) }
func BenchmarkFigure12_Dedup_64(b *testing.B)    { benchFigure12(b, configwall.DedupOnly, 64) }
func BenchmarkFigure12_Overlap_64(b *testing.B)  { benchFigure12(b, configwall.OverlapOnly, 64) }
func BenchmarkFigure12_All_64(b *testing.B)      { benchFigure12(b, configwall.AllOptimizations, 64) }
func BenchmarkFigure12_Base_128(b *testing.B)    { benchFigure12(b, configwall.Baseline, 128) }
func BenchmarkFigure12_Dedup_128(b *testing.B)   { benchFigure12(b, configwall.DedupOnly, 128) }
func BenchmarkFigure12_Overlap_128(b *testing.B) { benchFigure12(b, configwall.OverlapOnly, 128) }
func BenchmarkFigure12_All_128(b *testing.B)     { benchFigure12(b, configwall.AllOptimizations, 128) }
func BenchmarkFigure12_Base_256(b *testing.B)    { benchFigure12(b, configwall.Baseline, 256) }
func BenchmarkFigure12_Dedup_256(b *testing.B)   { benchFigure12(b, configwall.DedupOnly, 256) }
func BenchmarkFigure12_Overlap_256(b *testing.B) { benchFigure12(b, configwall.OverlapOnly, 256) }
func BenchmarkFigure12_All_256(b *testing.B)     { benchFigure12(b, configwall.AllOptimizations, 256) }

// Geomean summaries (the headline claims: 11% and 2x).
func BenchmarkGeomean_Figure10_Gemmini(b *testing.B) {
	var g float64
	for i := 0; i < b.N; i++ {
		rows, err := core.Figure10([]int{32, 64, 128, 256, 512}, core.RunOptions{SkipVerify: true})
		if err != nil {
			b.Fatal(err)
		}
		g = core.Fig10Geomean(rows)
	}
	b.ReportMetric(100*(g-1), "%geomean_uplift")
}

func BenchmarkGeomean_Figure11_OpenGeMM(b *testing.B) {
	var g float64
	for i := 0; i < b.N; i++ {
		rows, err := core.Figure11([]int{16, 32, 64, 128, 256, 512}, core.RunOptions{SkipVerify: true})
		if err != nil {
			b.Fatal(err)
		}
		g = core.Fig11Geomean(rows)
	}
	b.ReportMetric(g, "geomean_speedup")
}

// --- Ablations (DESIGN.md §4) ---

// AblationNoCSE: dedup effectiveness without CSE/canonicalization providing
// SSA-value equality (paper §5.4 relies on it).
func BenchmarkAblationNoCSE_Dedup(b *testing.B) {
	t := configwall.OpenGeMMTarget()
	full := runOnce(b, t, configwall.DedupOnly, 64)
	b.ReportMetric(float64(full.ConfigBytes), "cfgB_with_cse")
	// The baseline pipeline has no accfg passes at all — its config bytes
	// are what dedup-without-CSE degenerates to for this workload shape
	// (all per-tile SSA values are distinct without cleanup).
	base, err := configwall.RunTiledMatmul(t, configwall.Baseline, 64, configwall.RunOptions{SkipVerify: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(base.ConfigBytes), "cfgB_without")
}

// AblationDedupVsOverlap separates the two optimizations' contributions at
// the knee-adjacent size where the paper expects overlap to matter most.
func BenchmarkAblationDedupVsOverlap_128(b *testing.B) {
	t := configwall.OpenGeMMTarget()
	base := runOnce(b, t, configwall.Baseline, 128)
	dedup, _ := configwall.RunTiledMatmul(t, configwall.DedupOnly, 128, configwall.RunOptions{SkipVerify: true})
	overlap, _ := configwall.RunTiledMatmul(t, configwall.OverlapOnly, 128, configwall.RunOptions{SkipVerify: true})
	all, _ := configwall.RunTiledMatmul(t, configwall.AllOptimizations, 128, configwall.RunOptions{SkipVerify: true})
	b.ReportMetric(dedup.OpsPerCycle()/base.OpsPerCycle(), "dedup_speedup")
	b.ReportMetric(overlap.OpsPerCycle()/base.OpsPerCycle(), "overlap_speedup")
	b.ReportMetric(all.OpsPerCycle()/base.OpsPerCycle(), "all_speedup")
}

// AblationSequentialVsConcurrent quantifies what the concurrent-configuration
// hardware buys: the same optimized binary with overlap disabled (as if the
// accelerator were sequential).
func BenchmarkAblationSchemeGap_64(b *testing.B) {
	t := configwall.OpenGeMMTarget()
	dedupOnly := runOnce(b, t, configwall.DedupOnly, 64) // no overlap = sequential-style use
	all, _ := configwall.RunTiledMatmul(t, configwall.AllOptimizations, 64, configwall.RunOptions{SkipVerify: true})
	b.ReportMetric(all.OpsPerCycle()/dedupOnly.OpsPerCycle(), "concurrency_gain")
}

// Compiler-side microbenchmarks: pipeline cost itself (IR build + passes
// only — input-matrix setup is simulation cost and stays out of the loop).
func benchCompile(b *testing.B, t configwall.Target, build func(n int) (*ir.Module, error)) {
	for i := 0; i < b.N; i++ {
		m, err := build(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.PassPipeline(configwall.AllOptimizations).Run(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile_OpenGeMM_All_64(b *testing.B) {
	benchCompile(b, configwall.OpenGeMMTarget(), workload.OpenGeMMTiledMatmul)
}

func BenchmarkCompile_Gemmini_All_64(b *testing.B) {
	benchCompile(b, configwall.GemminiTarget(), workload.GemminiTiledMatmul)
}

// --- Registry workloads beyond the paper's square matmul ---

// benchWorkload measures one registered workload cell through the registry
// path (DESIGN.md §3).
func benchWorkload(b *testing.B, target, workloadName string, n int) {
	var res configwall.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = configwall.RunExperiment(configwall.Experiment{
			Target: target, Workload: workloadName,
			Pipeline: configwall.AllOptimizations, N: n,
		}, configwall.RunOptions{SkipVerify: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.OpsPerCycle(), "ops/cycle")
	b.ReportMetric(float64(res.ConfigBytes), "cfgB")
}

func BenchmarkWorkload_RectMM_Gemmini_64(b *testing.B) {
	benchWorkload(b, "gemmini", configwall.WorkloadRectMM, 64)
}
func BenchmarkWorkload_RectMM_OpenGeMM_64(b *testing.B) {
	benchWorkload(b, "opengemm", configwall.WorkloadRectMM, 64)
}
func BenchmarkWorkload_Matvec_Gemmini_64(b *testing.B) {
	benchWorkload(b, "gemmini", configwall.WorkloadMatvec, 64)
}
func BenchmarkWorkload_Matvec_OpenGeMM_64(b *testing.B) {
	benchWorkload(b, "opengemm", configwall.WorkloadMatvec, 64)
}

// --- Runner benchmarks (DESIGN.md §3): sweep wall time, serial vs ---
// concurrent, plus the cache hit path.

func sweepForBench() []configwall.Experiment {
	return configwall.SweepExperiments(
		configwall.TargetNames(),
		[]string{configwall.WorkloadMatmul},
		configwall.Pipelines,
		[]int{16, 32, 64},
	)
}

func benchSweep(b *testing.B, workers int) {
	exps := sweepForBench()
	for i := 0; i < b.N; i++ {
		// A fresh runner per iteration: this measures real compile+simulate
		// throughput, not cache hits.
		if _, err := configwall.NewRunner(workers).RunAll(context.Background(), exps, configwall.RunOptions{SkipVerify: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(exps)), "experiments")
}

func BenchmarkSweep_Serial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweep_Parallel(b *testing.B) { benchSweep(b, 0) }

func BenchmarkSweep_CacheHit(b *testing.B) {
	exps := sweepForBench()
	r := configwall.NewRunner(0)
	if _, err := r.RunAll(context.Background(), exps, configwall.RunOptions{SkipVerify: true}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunAll(context.Background(), exps, configwall.RunOptions{SkipVerify: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(exps)), "experiments")
}

// BenchmarkSweep_StoreHit measures the process-restart scenario the
// persistent store exists for: a fresh runner per iteration (empty memory
// cache) serving the whole sweep from a prepopulated on-disk store —
// deserialization cost instead of compile+simulate cost.
func BenchmarkSweep_StoreHit(b *testing.B) {
	exps := sweepForBench()
	opts := configwall.RunOptions{SkipVerify: true}
	st, err := configwall.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	warm := configwall.NewRunnerWith(configwall.RunnerOptions{Store: st})
	if _, err := warm.RunAll(context.Background(), exps, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := configwall.NewRunnerWith(configwall.RunnerOptions{Store: st})
		if _, err := r.RunAll(context.Background(), exps, opts); err != nil {
			b.Fatal(err)
		}
		if s := r.Snapshot(); s.Runs != 0 {
			b.Fatalf("store-hit sweep recomputed %d cells", s.Runs)
		}
	}
	b.ReportMetric(float64(len(exps)), "experiments")
}

// BenchmarkSweep_StoreWrite measures the first, cold pass of a
// store-backed sweep: compute everything and persist every cell.
func BenchmarkSweep_StoreWrite(b *testing.B) {
	exps := sweepForBench()
	opts := configwall.RunOptions{SkipVerify: true}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := configwall.OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := configwall.NewRunnerWith(configwall.RunnerOptions{Store: st}).RunAll(context.Background(), exps, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(exps)), "experiments")
}

// --- Differential-verification benchmarks (DESIGN.md §5) ---

// BenchmarkIRGen measures random-program generation throughput: one seeded
// module per iteration, alternating targets so both profiles stay hot.
func BenchmarkIRGen(b *testing.B) {
	targets := configwall.TargetNames()
	var ops int
	for i := 0; i < b.N; i++ {
		target := targets[i%len(targets)]
		prog, err := configwall.GenerateFuzzProgram(target, configwall.FuzzSeed(1, target, i))
		if err != nil {
			b.Fatal(err)
		}
		ops = prog.Stats.Ops()
	}
	b.ReportMetric(float64(ops), "program_ops")
}

// BenchmarkDiffOracle measures one full differential check per iteration:
// base plus every optimization pipeline, compiled and co-simulated, memory
// and launch-effect comparison included.
func BenchmarkDiffOracle(b *testing.B) {
	targets := configwall.TargetNames()
	for _, name := range targets {
		name := name
		b.Run(name, func(b *testing.B) {
			t, err := configwall.LookupTarget(name)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := configwall.GenerateFuzzProgram(name, configwall.FuzzSeed(1, name, 0))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				rep := configwall.DiffCheck(t, prog, configwall.DiffOptions{})
				if rep.Invalid || rep.Diverged() {
					b.Fatalf("oracle failed on a known-clean program: %+v", rep)
				}
			}
			b.ReportMetric(float64(len(configwall.Pipelines)-1), "pipelines/check")
		})
	}
}

// Sanity: the benchmark harness prints a one-line summary when verbose.
func Example_benchmarkCatalogue() {
	fmt.Println("benchmarks map 1:1 to the paper's tables and figures; see DESIGN.md")
	// Output: benchmarks map 1:1 to the paper's tables and figures; see DESIGN.md
}
