package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"configwall/internal/accel/gemmini"
	"configwall/internal/accel/opengemm"
	"configwall/internal/roofline"
	"configwall/internal/trace"
)

// This file regenerates every table and figure of the paper's evaluation
// (the per-experiment index lives in DESIGN.md).

// Geomean returns the geometric mean of xs. The geometric mean is
// undefined for non-positive inputs, and NaN or +Inf would silently poison
// the reported summary, so any x that is not a positive finite number
// yields 0 rather than propagating through reported speedups (math.Log(0)
// is -Inf, math.Log(-x) is NaN; NaN fails every comparison, so `x <= 0`
// alone would wave it through).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// speedupRatio divides opt by base, reporting 0 for a zero, NaN or
// infinite baseline instead of leaking NaN/Inf into rendered figures (a
// degenerate cell — e.g. a zero-op run — must not corrupt the geomean).
func speedupRatio(opt, base float64) float64 {
	if base == 0 || math.IsNaN(base) || math.IsInf(base, 0) {
		return 0
	}
	return opt / base
}

// Figure10Sizes are the matrix sizes of the paper's Figure 10.
var Figure10Sizes = []int{32, 64, 128, 256, 512}

// Figure11Sizes are the matrix sizes of the paper's Figure 11.
var Figure11Sizes = []int{16, 32, 64, 128, 256, 512}

// Figure12Sizes are the matrix sizes plotted in the paper's Figure 12.
var Figure12Sizes = []int{64, 128, 256}

// Fig10Row is one size of Figure 10: Gemmini attainable performance (Eq. 3
// proxy from measured counters, the paper's §6.1 methodology) for the
// volatile-asm C baseline and the accfg flow.
type Fig10Row struct {
	N                int
	BaselinePerf     float64
	AccfgPerf        float64
	Speedup          float64
	BaselineCounters Result
	AccfgCounters    Result
}

// Figure10Experiments lists the grid cells Figure 10 measures, in the
// order Figure10With consumes them.
func Figure10Experiments(sizes []int) []Experiment {
	var exps []Experiment
	for _, n := range sizes {
		exps = append(exps,
			Experiment{Target: gemmini.Name, Workload: WorkloadMatmul, Pipeline: Baseline, N: n},
			Experiment{Target: gemmini.Name, Workload: WorkloadMatmul, Pipeline: AllOptimizations, N: n},
		)
	}
	return exps
}

// Figure10With runs the Gemmini weight-stationary tiled matmuls and applies
// the paper's attainable-performance methodology. The runner is the
// caller's, so consecutive figures share the experiment cache (and its
// persistent store, if any).
func Figure10With(ctx context.Context, r *Runner, sizes []int) ([]Fig10Row, error) {
	results, err := r.RunAll(ctx, Figure10Experiments(sizes), RunOptions{})
	if err != nil {
		return nil, err
	}
	var rows []Fig10Row
	for i, n := range sizes {
		base, opt := results[2*i], results[2*i+1]
		rows = append(rows, Fig10Row{
			N:                n,
			BaselinePerf:     base.AttainableEq3(),
			AccfgPerf:        opt.AttainableEq3(),
			Speedup:          speedupRatio(opt.AttainableEq3(), base.AttainableEq3()),
			BaselineCounters: base,
			AccfgCounters:    opt,
		})
	}
	return rows, nil
}

// Fig10Geomean returns the geometric-mean uplift across rows (the paper
// reports 11%).
func Fig10Geomean(rows []Fig10Row) float64 {
	var ss []float64
	for _, r := range rows {
		ss = append(ss, r.Speedup)
	}
	return Geomean(ss)
}

// RenderFigure10 formats the rows like the paper's bar chart data.
func RenderFigure10(rows []Fig10Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 10: Gemmini weight-stationary tiled matmul, attainable performance (Eq. 3 proxy)\n")
	sb.WriteString(fmt.Sprintf("%-6s %18s %18s %10s\n", "size", "C-style baseline", "accfg (ours)", "speedup"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-6d %12.0f ops/cy %12.0f ops/cy %9.2fx\n",
			r.N, r.BaselinePerf, r.AccfgPerf, r.Speedup))
	}
	sb.WriteString(fmt.Sprintf("geomean uplift: %.1f%%  (paper: 11%%; peak = 512 ops/cycle)\n",
		100*(Fig10Geomean(rows)-1)))
	return sb.String()
}

// Fig11Row is one size of Figure 11: OpenGeMM measured performance for the
// unoptimized accfg flow vs the fully optimized one.
type Fig11Row struct {
	N            int
	BasePerf     float64 // measured ops/cycle
	OptPerf      float64
	Speedup      float64
	BaseCounters Result
	OptCounters  Result
}

// Figure11Experiments lists the grid cells Figure 11 measures, in the
// order Figure11With consumes them.
func Figure11Experiments(sizes []int) []Experiment {
	var exps []Experiment
	for _, n := range sizes {
		exps = append(exps,
			Experiment{Target: opengemm.Name, Workload: WorkloadMatmul, Pipeline: Baseline, N: n},
			Experiment{Target: opengemm.Name, Workload: WorkloadMatmul, Pipeline: AllOptimizations, N: n},
		)
	}
	return exps
}

// Figure11With runs the OpenGeMM tiled matmuls and measures cycle-accurate
// performance (the paper's §6.2 methodology) on the caller's runner.
func Figure11With(ctx context.Context, r *Runner, sizes []int) ([]Fig11Row, error) {
	results, err := r.RunAll(ctx, Figure11Experiments(sizes), RunOptions{})
	if err != nil {
		return nil, err
	}
	var rows []Fig11Row
	for i, n := range sizes {
		base, opt := results[2*i], results[2*i+1]
		rows = append(rows, Fig11Row{
			N:            n,
			BasePerf:     base.OpsPerCycle(),
			OptPerf:      opt.OpsPerCycle(),
			Speedup:      speedupRatio(opt.OpsPerCycle(), base.OpsPerCycle()),
			BaseCounters: base,
			OptCounters:  opt,
		})
	}
	return rows, nil
}

// Fig11Geomean returns the geometric-mean speedup (the paper reports 2x).
func Fig11Geomean(rows []Fig11Row) float64 {
	var ss []float64
	for _, r := range rows {
		ss = append(ss, r.Speedup)
	}
	return Geomean(ss)
}

// RenderFigure11 formats the rows like the paper's bar chart data.
func RenderFigure11(rows []Fig11Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 11: OpenGeMM tiled matmul, measured performance (cycle-accurate co-simulation)\n")
	sb.WriteString(fmt.Sprintf("%-6s %15s %18s %10s\n", "size", "base (MLIR)", "with optimizations", "speedup"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-6d %9.0f ops/cy %12.0f ops/cy %9.2fx\n",
			r.N, r.BasePerf, r.OptPerf, r.Speedup))
	}
	sb.WriteString(fmt.Sprintf("geomean speedup: %.2fx  (paper: 2x; peak = 1024 ops/cycle)\n", Fig11Geomean(rows)))
	return sb.String()
}

// Fig12Data is the roofline scatter of Figure 12: per size and pipeline
// variant, the measured (I_OC, performance) point, plus the analytical
// sequential and concurrent rooflines.
type Fig12Data struct {
	Model  roofline.Model
	Points []roofline.Series // one series per pipeline variant
}

// Figure12Experiments lists the grid cells Figure 12 measures (every
// pipeline variant at every size), in the order Figure12With consumes them.
func Figure12Experiments(sizes []int) []Experiment {
	return Sweep([]string{opengemm.Name}, []string{WorkloadMatmul}, Pipelines, sizes)
}

// Figure12With measures OpenGeMM under all four pipeline variants and places
// the results on the configuration roofline. On a runner shared with
// Figure11With the base/all cells at common sizes are computed once.
func Figure12With(ctx context.Context, r *Runner, sizes []int) (Fig12Data, error) {
	t, err := LookupTarget(opengemm.Name)
	if err != nil {
		return Fig12Data{}, err
	}
	data := Fig12Data{Model: t.RooflineModel()}
	results, err := r.RunAll(ctx, Figure12Experiments(sizes), RunOptions{})
	if err != nil {
		return data, err
	}
	for pi, p := range Pipelines {
		s := roofline.Series{Name: p.String()}
		for si, n := range sizes {
			res := results[pi*len(sizes)+si]
			s.Points = append(s.Points, roofline.Point{
				Label: fmt.Sprintf("n=%d", n),
				IOC:   res.MeasuredIOC(),
				Perf:  res.OpsPerCycle(),
			})
		}
		data.Points = append(data.Points, s)
	}
	return data, nil
}

// RenderFigure12 formats the scatter data and an ASCII roofline plot.
func RenderFigure12(d Fig12Data) string {
	var sb strings.Builder
	sb.WriteString("Figure 12: OpenGeMM measurements on the configuration roofline\n")
	sb.WriteString(d.Model.String() + "\n\n")
	sb.WriteString(fmt.Sprintf("%-10s %-8s %12s %14s\n", "pipeline", "size", "I_OC (ops/B)", "P (ops/cycle)"))
	for _, s := range d.Points {
		for _, p := range s.Points {
			sb.WriteString(fmt.Sprintf("%-10s %-8s %12.1f %14.1f\n", s.Name, p.Label, p.IOC, p.Perf))
		}
	}
	sb.WriteString("\n")
	plot := roofline.NewAsciiPlot(72, 18)
	plot.XMin, plot.XMax = 16, 1<<14
	plot.YMin, plot.YMax = 16, 2048
	plot.AddCurve(d.Model.CurveSequential(16, 1<<14, 72))
	plot.AddCurve(d.Model.CurveConcurrent(16, 1<<14, 72))
	for _, s := range d.Points {
		plot.AddPoints(s)
	}
	sb.WriteString(plot.Render())
	return sb.String()
}

// Section46 reproduces the paper's §4.6 worked example analytically: the
// Gemmini output-stationary 64x64x64 matmul with the paper's traced
// instruction counts.
type Section46 struct {
	Ops            float64
	PeakOps        float64
	BWConfigRaw    float64
	IOC            float64
	UtilRaw        float64 // paper: 41.49 %
	BWConfigEff    float64
	UtilEff        float64 // paper: 26.78 %
	ConfigInstrs   int
	CalcInstrs     int
	CyclesPerInstr float64
	BytesPerInstr  float64
	ConfigBytes    float64
}

// Section46Example evaluates the worked example with the paper's inputs:
// 160 setup instructions, 775 parameter-calculation instructions, 16 bytes
// per RoCC instruction, 3 cycles/instruction, 2*64^3 ops.
func Section46Example() Section46 {
	e := Section46{
		Ops:            2 * 64 * 64 * 64,
		PeakOps:        512,
		ConfigInstrs:   160,
		CalcInstrs:     775,
		CyclesPerInstr: 3,
		BytesPerInstr:  16,
	}
	e.ConfigBytes = float64(e.ConfigInstrs) * e.BytesPerInstr
	// BW_Config: one custom instruction plus two register-setup
	// instructions move 16 bytes (paper: 16 / (3*3) ~= 1.77 B/cycle).
	e.BWConfigRaw = e.BytesPerInstr / (3 * e.CyclesPerInstr)
	e.IOC = e.Ops / e.ConfigBytes
	e.UtilRaw = roofline.Sequential(e.PeakOps, e.BWConfigRaw, e.IOC) / e.PeakOps
	// Effective bandwidth: all 935 instructions pay for the same bytes
	// (paper: ~0.913 B/cycle).
	e.BWConfigEff = e.ConfigBytes / (float64(e.ConfigInstrs+e.CalcInstrs) * e.CyclesPerInstr)
	e.UtilEff = roofline.Sequential(e.PeakOps, e.BWConfigEff, e.IOC) / e.PeakOps
	return e
}

// RenderSection46 formats the worked example against the paper's numbers.
func RenderSection46() string {
	e := Section46Example()
	var sb strings.Builder
	sb.WriteString("Section 4.6 worked example: Gemmini output-stationary 64x64x64 matmul\n")
	fmt.Fprintf(&sb, "ops                 = %.0f\n", e.Ops)
	fmt.Fprintf(&sb, "config bytes        = %.0f (%d RoCC instructions x %.0f B)\n", e.ConfigBytes, e.ConfigInstrs, e.BytesPerInstr)
	fmt.Fprintf(&sb, "BW_Config           = %.3f B/cycle   (paper: ~1.77)\n", e.BWConfigRaw)
	fmt.Fprintf(&sb, "I_OC                = %.1f ops/B      (paper: ~205.19 — includes a 525,288-vs-524,288 slip)\n", e.IOC)
	fmt.Fprintf(&sb, "attainable (Eq. 3)  = %.2f%% of peak  (paper: 41.49%%)\n", 100*e.UtilRaw)
	fmt.Fprintf(&sb, "BW_Config,Eff       = %.3f B/cycle   (paper: ~0.913)\n", e.BWConfigEff)
	fmt.Fprintf(&sb, "attainable w/ eff.  = %.2f%% of peak  (paper: 26.78%%)\n", 100*e.UtilEff)
	return sb.String()
}

// RenderFigure4 samples the configuration roofline curves of Figure 4 for a
// generic accelerator model.
func RenderFigure4(m roofline.Model) string {
	var sb strings.Builder
	sb.WriteString("Figure 4: configuration roofline (sequential vs concurrent)\n")
	sb.WriteString(m.String() + "\n")
	plot := roofline.NewAsciiPlot(72, 18)
	plot.XMin, plot.XMax = 1, 1<<14
	plot.YMin, plot.YMax = 1, 2*m.PeakOps
	plot.AddCurve(m.CurveSequential(1, 1<<14, 72))
	plot.AddCurve(m.CurveConcurrent(1, 1<<14, 72))
	sb.WriteString(plot.Render())
	fmt.Fprintf(&sb, "knee point at I_OC = %.1f ops/B divides the configuration-bound (left)\n", m.Knee())
	sb.WriteString("and compute-bound (right) regions.\n")
	return sb.String()
}

// RenderFigure5 samples the combined roofsurface of Figure 5 as a CSV-like
// grid (iOperational, iOC, attainable).
func RenderFigure5(m roofline.Model, n int) string {
	var sb strings.Builder
	sb.WriteString("Figure 5: combined roofsurface samples (I_Operational, I_OC, P_attainable)\n")
	for _, row := range m.Surface(0.25, 1024, 0.25, 16384, n) {
		fmt.Fprintf(&sb, "%10.3f, %10.3f, %10.2f\n", row[0], row[1], row[2])
	}
	return sb.String()
}

// RenderTimelines reproduces the Figure 7 intuition: the same workload's
// traced run under the baseline and fully optimized pipelines.
func RenderTimelines(t Target, n int, width int) (string, error) {
	w, err := LookupWorkload(WorkloadMatmul)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, p := range []Pipeline{Baseline, AllOptimizations} {
		c, err := Compile(t, w, p, n)
		if err != nil {
			return "", err
		}
		r, err := c.Execute(RunOptions{}, true)
		if err != nil {
			return "", err
		}
		sum := trace.Summarize(r.Trace)
		fmt.Fprintf(&sb, "--- %s / %s / n=%d  (%d cycles, %.1f ops/cycle) ---\n",
			t.Name, p, n, r.Cycles, r.OpsPerCycle())
		sb.WriteString(trace.Timeline(r.Trace, 0, r.Cycles, width))
		fmt.Fprintf(&sb, "host exec %d, host config %d, host stall %d, accel busy %d, overlap %d cycles\n\n",
			sum.HostExec, sum.HostConfig, sum.HostStall, sum.AccelBusy, trace.OverlapCycles(r.Trace))
	}
	return sb.String(), nil
}
