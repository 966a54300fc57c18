package core_test

import (
	"context"
	"strings"
	"testing"

	"configwall/internal/core"
	"configwall/internal/mem"
	"configwall/internal/roofline"
	"configwall/internal/sim"
	"configwall/internal/trace"
	"configwall/internal/workload"
)

// TestAllPipelinesVerifyFunctionally is the repository's central soundness
// check: every pipeline variant on every target must produce a binary whose
// simulated output matches the golden CPU matmul.
func TestAllPipelinesVerifyFunctionally(t *testing.T) {
	for _, target := range []core.Target{core.GemminiTarget(), core.OpenGeMMTarget()} {
		for _, p := range core.Pipelines {
			for _, n := range []int{16, 32, 64} {
				if target.Name == "gemmini" && n < 16 {
					continue
				}
				t.Run(target.Name+"/"+p.String()+"/"+itoa(n), func(t *testing.T) {
					res, err := core.RunTiledMatmul(target, p, n, core.RunOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Verified {
						t.Error("result not verified")
					}
					if res.Launches == 0 || res.AccelOps == 0 {
						t.Error("no accelerator activity recorded")
					}
					wantOps := uint64(2 * n * n * n)
					if res.AccelOps != wantOps {
						t.Errorf("AccelOps = %d, want %d", res.AccelOps, wantOps)
					}
				})
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestOptimizationsNeverSlowDown asserts the paper's qualitative claim: the
// full pipeline is at least as fast as the baseline at every size.
func TestOptimizationsNeverSlowDown(t *testing.T) {
	for _, target := range []core.Target{core.GemminiTarget(), core.OpenGeMMTarget()} {
		for _, n := range []int{16, 32, 64, 128} {
			base, err := core.RunTiledMatmul(target, core.Baseline, n, core.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			opt, err := core.RunTiledMatmul(target, core.AllOptimizations, n, core.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if opt.Cycles > base.Cycles {
				t.Errorf("%s n=%d: optimized %d cycles > baseline %d", target.Name, n, opt.Cycles, base.Cycles)
			}
		}
	}
}

// TestDedupReducesConfigBytes asserts the mechanism behind Figure 12's
// arrow 1: deduplication strictly reduces configuration traffic on
// multi-invocation workloads.
func TestDedupReducesConfigBytes(t *testing.T) {
	for _, target := range []core.Target{core.GemminiTarget(), core.OpenGeMMTarget()} {
		n := 128
		base, err := core.RunTiledMatmul(target, core.Baseline, n, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dedup, err := core.RunTiledMatmul(target, core.DedupOnly, n, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if dedup.ConfigBytes >= base.ConfigBytes {
			t.Errorf("%s: dedup config bytes %d >= baseline %d", target.Name, dedup.ConfigBytes, base.ConfigBytes)
		}
		if dedup.MeasuredIOC() <= base.MeasuredIOC() {
			t.Errorf("%s: dedup I_OC %f <= baseline %f (should move right on the roofline)",
				target.Name, dedup.MeasuredIOC(), base.MeasuredIOC())
		}
	}
}

// TestOverlapHidesConfiguration asserts the mechanism behind Figure 12's
// arrow 2 on the concurrent-configuration target: overlap increases
// performance without reducing configuration traffic.
func TestOverlapHidesConfiguration(t *testing.T) {
	target := core.OpenGeMMTarget()
	n := 64
	base := tracedMatmul(t, target, core.Baseline, n, core.RunOptions{})
	overlap := tracedMatmul(t, target, core.OverlapOnly, n, core.RunOptions{})
	if overlap.OpsPerCycle() <= base.OpsPerCycle() {
		t.Errorf("overlap %f ops/cycle <= baseline %f", overlap.OpsPerCycle(), base.OpsPerCycle())
	}
	if trace.OverlapCycles(overlap.Trace) <= trace.OverlapCycles(base.Trace) {
		t.Error("overlap pipeline did not increase hidden host cycles")
	}
}

// TestOverlapDoesNotApplySequentially: on Gemmini (sequential) the overlap
// pipeline must not beat dedup (no concurrency to exploit).
func TestOverlapDoesNotApplySequentially(t *testing.T) {
	target := core.GemminiTarget()
	overlap, err := core.RunTiledMatmul(target, core.OverlapOnly, 64, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Overlap-only on a sequential target is the accfg flow without any
	// accfg-specific optimization: its config traffic equals the traffic
	// of the same flow with overlap disabled.
	if overlap.StallCycles == 0 {
		t.Error("sequential target should still stall on launches")
	}
}

func TestFigure10Shape(t *testing.T) {
	rows, err := core.Figure10.With(context.Background(), core.NewRunner(0), []int{32, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup < 1.0 {
			t.Errorf("size %d: accfg slower than baseline (%.2fx)", r.N, r.Speedup)
		}
		if r.OptPerf > 512 || r.BasePerf > 512 {
			t.Errorf("size %d: attainable perf exceeds peak", r.N)
		}
	}
	// Baseline utilization grows with size (configuration amortizes).
	if !(rows[0].BasePerf < rows[1].BasePerf && rows[1].BasePerf < rows[2].BasePerf) {
		t.Error("baseline attainable performance should grow with size")
	}
	out := core.RenderFigure10(rows)
	if !strings.Contains(out, "geomean") {
		t.Error("render missing geomean")
	}
}

func TestFigure11Shape(t *testing.T) {
	rows, err := core.Figure11.With(context.Background(), core.NewRunner(0), []int{16, 32, 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Speedup <= 1.0 {
			t.Errorf("size %d: no speedup (%.2fx)", r.N, r.Speedup)
		}
		if r.OptPerf > 1024 {
			t.Errorf("size %d: measured perf exceeds peak", r.N)
		}
	}
	g := core.PairedGeomean(rows)
	if g < 1.5 || g > 3.0 {
		t.Errorf("geomean speedup %.2f outside the paper's ballpark (2x)", g)
	}
}

func TestFigure12PointsMoveAsPredicted(t *testing.T) {
	data, err := core.Figure12With(context.Background(), core.NewRunner(0), []int{64})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]roofline.Point{}
	for _, s := range data.Points {
		byName[s.Name] = s.Points[0]
	}
	// §4.7's predictions: dedup moves right and up; overlap moves up with
	// I_OC not increasing (prologue duplication may lower it slightly).
	if !(byName["dedup"].IOC > byName["base"].IOC) {
		t.Error("dedup must increase I_OC (move right)")
	}
	if !(byName["dedup"].Perf > byName["base"].Perf) {
		t.Error("dedup must increase performance (move up)")
	}
	if !(byName["overlap"].Perf > byName["base"].Perf) {
		t.Error("overlap must increase performance (move up)")
	}
	if byName["overlap"].IOC > byName["base"].IOC*1.05 {
		t.Error("overlap must not substantially change I_OC")
	}
	if !(byName["all"].Perf >= byName["dedup"].Perf && byName["all"].Perf >= byName["overlap"].Perf) {
		t.Error("combined optimizations must dominate the individual ones")
	}
	out := core.RenderFigure12(data)
	if !strings.Contains(out, "legend") {
		t.Error("figure 12 render missing plot legend")
	}
}

func TestSection46MatchesPaper(t *testing.T) {
	e := core.Section46Example()
	if e.UtilRaw < 0.405 || e.UtilRaw > 0.425 {
		t.Errorf("raw utilization = %.4f, want ~0.4156 (paper 41.49%%)", e.UtilRaw)
	}
	if e.UtilEff < 0.26 || e.UtilEff > 0.275 {
		t.Errorf("effective utilization = %.4f, want ~0.2674 (paper 26.78%%)", e.UtilEff)
	}
	if e.BWConfigRaw < 1.7 || e.BWConfigRaw > 1.8 {
		t.Errorf("BW_Config = %.3f, want ~1.77", e.BWConfigRaw)
	}
	if e.BWConfigEff < 0.9 || e.BWConfigEff > 0.93 {
		t.Errorf("BW_Config,Eff = %.3f, want ~0.913", e.BWConfigEff)
	}
	out := core.RenderSection46()
	if !strings.Contains(out, "41.") || !strings.Contains(out, "26.") {
		t.Error("render missing headline utilizations")
	}
}

func TestRooflineModels(t *testing.T) {
	g := core.GemminiTarget().RooflineModel()
	if g.ConcurrentConfig {
		t.Error("gemmini roofline must be sequential")
	}
	// Paper §4.6: 16 bytes / (3 instr x 3 cycles) with the RoCC handshake
	// folded in; must be in the paper's ballpark of ~1.77 B/cycle.
	if g.BWConfig < 0.5 || g.BWConfig > 2.0 {
		t.Errorf("gemmini BW_config = %.3f, want O(1) B/cycle", g.BWConfig)
	}
	o := core.OpenGeMMTarget().RooflineModel()
	if !o.ConcurrentConfig {
		t.Error("opengemm roofline must be concurrent")
	}
	if o.PeakOps != 1024 {
		t.Errorf("opengemm peak = %f, want 1024", o.PeakOps)
	}
}

func TestRenderTimelines(t *testing.T) {
	out, err := core.RenderTimelines(core.OpenGeMMTarget(), 16, 80)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "base") || !strings.Contains(out, "all") {
		t.Error("timelines missing pipeline labels")
	}
	if strings.Count(out, "accel |") != 2 {
		t.Error("expected two accelerator rows")
	}
}

func TestPassPipelineStats(t *testing.T) {
	target := core.OpenGeMMTarget()
	w, err := core.LookupWorkload(core.WorkloadMatmul)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Build(target, 16)
	if err != nil {
		t.Fatal(err)
	}
	pm := target.PassPipeline(core.AllOptimizations)
	log, err := pm.Log(inst.Module)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != pm.Len() {
		t.Errorf("%d log lines for %d passes", len(log), pm.Len())
	}
	joined := strings.Join(log, "\n")
	for _, pass := range []string{"accfg-trace-states", "accfg-dedup", "accfg-overlap", "lower-accfg-to-opengemm"} {
		if !strings.Contains(joined, pass) {
			t.Errorf("pipeline missing pass %s:\n%s", pass, joined)
		}
	}
}

// TestPassPipelineAllocations: the stateless passes are shared values and
// the passes that close over the target's port (overlap, the lowering) are
// built once per port, so assembling a pipeline allocates its pass list
// and its manager and nothing else, whatever the pipeline.
func TestPassPipelineAllocations(t *testing.T) {
	const budget = 2 // measured 2; 5 without overlap and 8 with while the port's passes were built per call, 8 to 29 when every pass was boxed per call
	for _, tg := range []core.Target{core.GemminiTarget(), core.OpenGeMMTarget()} {
		for _, p := range core.Pipelines {
			allocs := testing.AllocsPerRun(50, func() { tg.PassPipeline(p) })
			t.Logf("%s %s: %d passes, %.0f allocations", tg.Name, p, tg.PassPipeline(p).Len(), allocs)
			if allocs > budget {
				t.Errorf("%s %s: %.0f allocations, budget %d", tg.Name, p, allocs, budget)
			}
		}
	}
}

func TestBaselineHasNoAccfgPasses(t *testing.T) {
	pm := core.OpenGeMMTarget().PassPipeline(core.Baseline)
	joined := strings.Join(pm.Passes(), ",")
	for _, banned := range []string{"dedup", "overlap", "licm", "trace-states"} {
		if strings.Contains(joined, banned) {
			t.Errorf("baseline pipeline contains %q: %s", banned, joined)
		}
	}
}

func TestGeomeanHelper(t *testing.T) {
	if g := core.Geomean([]float64{2, 8}); g != 4 {
		t.Errorf("Geomean(2,8) = %v, want 4", g)
	}
	if g := core.Geomean(nil); g != 0 {
		t.Errorf("Geomean(nil) = %v, want 0", g)
	}
}

func TestCountersArithmetic(t *testing.T) {
	c := sim.Counters{
		Cycles: 100, AccelOps: 1000, ConfigBytes: 50,
		ConfigCycles: 10, CalcCycles: 40,
	}
	if c.OpsPerCycle() != 10 {
		t.Errorf("OpsPerCycle = %v", c.OpsPerCycle())
	}
	if c.MeasuredIOC() != 20 {
		t.Errorf("MeasuredIOC = %v", c.MeasuredIOC())
	}
	if c.EffectiveConfigBW() != 1 {
		t.Errorf("EffectiveConfigBW = %v", c.EffectiveConfigBW())
	}
	if c.RawConfigBW() != 5 {
		t.Errorf("RawConfigBW = %v", c.RawConfigBW())
	}
}

// TestMatmulBufferInitAndVerify holds a matmul instance's bulk Init and
// Verify (one mem.Region, one mem.View) to the per-element semantics: Init
// writes the input byte for byte, Verify passes the golden output and names
// the first mismatching element.
func TestMatmulBufferInitAndVerify(t *testing.T) {
	const n = 32
	a := make([]int8, n*n)
	b := make([]int8, n*n)
	workload.Fill(a, 1)
	workload.Fill(b, 2)
	golden := workload.MatmulInt8MKN(a, b, n, n, n)

	for _, target := range []core.Target{core.GemminiTarget(), core.OpenGeMMTarget()} {
		w, err := core.LookupWorkload(core.WorkloadMatmul)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Build(target, n)
		if err != nil {
			t.Fatal(err)
		}
		mm := mem.New(1 << 20)
		const aBase, cBase = 0x1000, 0x8000

		inst.Buffers[0].Init(mm, aBase)
		for i, v := range a {
			if got := int8(mm.Read8(aBase + uint64(i))); got != v {
				t.Fatalf("%s: Init wrote A[%d] = %d, want %d", target.Name, i, got, v)
			}
		}

		width := uint64(target.OutputBytes)
		for i, v := range golden {
			if width == 1 {
				mm.Write8(cBase+uint64(i), uint8(workload.SaturateInt8(v)))
			} else {
				mm.Write32(cBase+4*uint64(i), uint32(v))
			}
		}
		if err := inst.Buffers[2].Verify(mm, cBase); err != nil {
			t.Fatalf("%s: %v", target.Name, err)
		}

		const bad = 100
		mm.Write8(cBase+bad*width, mm.Read8(cBase+bad*width)^0x40)
		if err := inst.Buffers[2].Verify(mm, cBase); err == nil || !strings.HasPrefix(err.Error(), "C[100] = ") {
			t.Errorf("%s: corrupted C[100]: err = %v", target.Name, err)
		}
	}
}

// TestPipelineByNameAllocatesNothing: every /v1/run resolves its pipeline
// through PipelineByName, so a hit allocates nothing; only the error path
// builds the list of valid names, and its text stays the same.
func TestPipelineByNameAllocatesNothing(t *testing.T) {
	for _, p := range core.Pipelines {
		name := p.String()
		var got core.Pipeline
		var err error
		if n := testing.AllocsPerRun(100, func() { got, err = core.PipelineByName(name) }); n != 0 {
			t.Errorf("PipelineByName(%q): %.0f allocations, want 0", name, n)
		}
		if err != nil || got != p {
			t.Errorf("PipelineByName(%q) = %v, %v; want %v", name, got, err, p)
		}
	}
	const want = `unknown pipeline "turbo" (want base|dedup|overlap|all)`
	if _, err := core.PipelineByName("turbo"); err == nil || err.Error() != want {
		t.Errorf("PipelineByName(\"turbo\") error = %v, want %s", err, want)
	}
}
