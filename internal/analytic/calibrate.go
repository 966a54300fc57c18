package analytic

// Calibration: fit the analytical tier against the real co-simulator on a
// seeded training grid and validate it on held-out cells it never saw —
// the Eggensperger et al. hygiene bar (PAPERS.md). The split is
// deterministic in the seed, the fit is deterministic in the split, and
// the simulator is deterministic by construction, so refitting with the
// same seed is byte-identical; difftest/cwfuzz lean on that to make the
// error band a standing campaign invariant.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"configwall/internal/core"
)

// Band is the documented prediction error band, validated on held-out
// cells and enforced forever after by the analytic-bounds invariant.
// Errors are relative cycle errors: exp(|ln(predicted/actual)|) - 1, so
// over- and under-prediction are penalized symmetrically.
type Band struct {
	// Geomean bounds the per-target geometric-mean cycle error across
	// all held-out cells (the acceptance criterion: ≤ 0.15).
	Geomean float64 `json:"geomean"`
	// PerCell bounds every individual held-out cell's cycle error.
	PerCell float64 `json:"per_cell"`
}

// DefaultBand is the documented error band (DESIGN.md §10): held-out
// geomean cycle error within 15%, no single cell beyond 30%.
var DefaultBand = Band{Geomean: 0.15, PerCell: 0.30}

// DefaultSizes is the calibration size grid. All sizes are multiples of
// 32 so every registered workload shape builds on every target (gemmini
// tiles require 16-multiple dimensions and rectmm halves n), and the
// range covers the figure grids' interpolation region.
var DefaultSizes = []int{32, 64, 96, 128, 160, 192, 224, 256}

// Spec configures one calibration run. The rest of the grid is fixed:
// every registered workload, every pipeline, DefaultSizes, simulated under
// core.RunOptions{} and validated against DefaultBand.
type Spec struct {
	// Targets are the targets to fit; empty selects every registered one.
	Targets []string
	// Seed drives the train/holdout split shuffle.
	Seed int64
}

// splitSizes deterministically partitions the calibration sizes: both
// endpoints always train (the fit must interpolate, never extrapolate,
// onto held-out cells), and a seeded shuffle of the interior holds out
// one third (at least one) for validation.
func splitSizes(sizes []int, seed int64) (train, holdout []int, err error) {
	s := append([]int(nil), sizes...)
	sort.Ints(s)
	uniq := s[:0]
	for i, v := range s {
		if v < 1 {
			return nil, nil, fmt.Errorf("analytic: non-positive calibration size %d", v)
		}
		if i == 0 || v != s[i-1] {
			uniq = append(uniq, v)
		}
	}
	s = uniq
	if len(s) < 7 {
		return nil, nil, fmt.Errorf("analytic: %d calibration sizes, need >= 7 (%d train for the structural basis + held-out cells)", len(s), numFeatures)
	}
	interior := append([]int(nil), s[1:len(s)-1]...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(interior), func(i, j int) { interior[i], interior[j] = interior[j], interior[i] })
	nHold := len(interior) / 3
	if nHold < 1 {
		nHold = 1
	}
	holdout = append([]int(nil), interior[:nHold]...)
	train = append([]int{s[0], s[len(s)-1]}, interior[nHold:]...)
	sort.Ints(holdout)
	sort.Ints(train)
	return train, holdout, nil
}

// CellError is one held-out cell's prediction-vs-simulation comparison.
type CellError struct {
	Exp       core.Experiment `json:"exp"`
	Predicted float64         `json:"predicted"`
	Actual    float64         `json:"actual"`
	// Err is the relative cycle error exp(|ln(pred/actual)|) - 1.
	Err float64 `json:"err"`
}

// TargetReport summarizes one target's held-out validation.
type TargetReport struct {
	Target string `json:"target"`
	// Cells lists every held-out cell in grid order.
	Cells []CellError `json:"cells"`
	// GeomeanErr is exp(mean |ln(pred/actual)|) - 1 over Cells.
	GeomeanErr float64 `json:"geomean_err"`
	// MaxErr is the worst cell error.
	MaxErr float64 `json:"max_err"`
}

// Violations lists the cells beyond the per-cell band.
func (tr TargetReport) Violations(band Band) []CellError {
	var out []CellError
	for _, c := range tr.Cells {
		if c.Err > band.PerCell {
			out = append(out, c)
		}
	}
	return out
}

// Report is the held-out error report of one calibration run.
type Report struct {
	Band Band `json:"band"`
	// Targets holds one report per calibrated target, sorted by name.
	Targets []TargetReport `json:"targets"`
}

// Clean reports whether every target honors the band: geomean within
// Band.Geomean and every held-out cell within Band.PerCell.
func (r *Report) Clean() bool {
	for _, tr := range r.Targets {
		if tr.GeomeanErr > r.Band.Geomean || len(tr.Violations(r.Band)) > 0 {
			return false
		}
	}
	return true
}

// String renders the report deterministically, one target per paragraph.
func (r *Report) String() string {
	var sb strings.Builder
	for _, tr := range r.Targets {
		fmt.Fprintf(&sb, "%s: %d held-out cells, geomean cycle error %.1f%% (band %.0f%%), max %.1f%% (band %.0f%%)\n",
			tr.Target, len(tr.Cells), 100*tr.GeomeanErr, 100*r.Band.Geomean, 100*tr.MaxErr, 100*r.Band.PerCell)
		for _, c := range tr.Cells {
			marker := ""
			if c.Err > r.Band.PerCell {
				marker = "  VIOLATION"
			}
			fmt.Fprintf(&sb, "  %-28s predicted %12.0f actual %12.0f err %5.1f%%%s\n",
				c.Exp, c.Predicted, c.Actual, 100*c.Err, marker)
		}
	}
	return sb.String()
}

// Calibrate fits the analytical tier against the simulator: it runs the
// full calibration grid (training and held-out sizes) through the runner
// at full fidelity, fits per-(workload, pipeline) curves on the training
// cells, and validates cycle predictions on the held-out cells. The
// returned model is usable regardless of band violations — the report
// says whether it honors the band; callers that must enforce it check
// Report.Clean.
func Calibrate(ctx context.Context, r *core.Runner, spec Spec) (*Model, *Report, error) {
	targets, workloads := spec.Targets, core.WorkloadNames()
	if len(targets) == 0 {
		targets = core.TargetNames()
	}
	train, holdout, err := splitSizes(DefaultSizes, spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	all := append(append([]int(nil), train...), holdout...)
	sort.Ints(all)

	grid := core.Sweep(targets, workloads, core.Pipelines, all)
	results, err := r.RunAll(ctx, grid, core.RunOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("analytic: calibration grid: %w", err)
	}
	byCell := make(map[core.Experiment]core.Result, len(grid))
	for i, e := range grid {
		byCell[e] = results[i]
	}

	model := &Model{Schema: Schema, Seed: spec.Seed, Band: DefaultBand, Targets: map[string]*TargetModel{}}
	for _, tn := range targets {
		tgt, err := core.LookupTarget(tn)
		if err != nil {
			return nil, nil, err
		}
		rm := tgt.RooflineModel()
		tm := &TargetModel{
			Constants: Constants{
				PeakOps:    rm.PeakOps,
				BWConfig:   rm.BWConfig,
				BWMemory:   rm.BWMemory,
				Concurrent: rm.ConcurrentConfig,
			},
			TrainSizes:   append([]int(nil), train...),
			HoldoutSizes: append([]int(nil), holdout...),
			Curves:       map[string]Curve{},
		}
		for _, wn := range workloads {
			for _, p := range core.Pipelines {
				curve, err := fitCurve(tn, wn, p, train, byCell)
				if err != nil {
					return nil, nil, err
				}
				tm.Curves[CurveKey(wn, p)] = curve
			}
		}
		model.Targets[tn] = tm
	}

	report := &Report{Band: DefaultBand}
	for _, tn := range targets {
		tr := TargetReport{Target: tn}
		logSum := 0.0
		for _, wn := range workloads {
			for _, p := range core.Pipelines {
				for _, n := range holdout {
					e := core.Experiment{Target: tn, Workload: wn, Pipeline: p, N: n}
					pred, err := model.Predict(e)
					if err != nil {
						return nil, nil, err
					}
					actual := float64(byCell[e].Cycles)
					ce := CellError{Exp: e, Predicted: float64(pred.Cycles), Actual: actual}
					if actual > 0 && ce.Predicted > 0 {
						ce.Err = math.Exp(math.Abs(math.Log(ce.Predicted/actual))) - 1
					} else {
						ce.Err = math.Inf(1)
					}
					logSum += math.Log1p(ce.Err)
					if ce.Err > tr.MaxErr {
						tr.MaxErr = ce.Err
					}
					tr.Cells = append(tr.Cells, ce)
				}
			}
		}
		if len(tr.Cells) > 0 {
			tr.GeomeanErr = math.Expm1(logSum / float64(len(tr.Cells)))
		}
		report.Targets = append(report.Targets, tr)
	}
	sort.Slice(report.Targets, func(i, j int) bool { return report.Targets[i].Target < report.Targets[j].Target })
	return model, report, nil
}

// DefaultSeed is the train/holdout split seed of every fit no campaign
// seeds: cwbench -calibrate, cwbench -fidelity without -model, and cwserve
// -analytic. A model file and a boot-time fit therefore agree.
const DefaultSeed = 1

// Attach installs the analytical tier on r, the one way a binary gets a
// predictor: the model file at path when one is given, otherwise a fit
// against r's own simulator under seed (with a store behind r the
// calibration cells land in it, so the next fit re-simulates nothing). A
// fit whose held-out error leaves its band is refused — screening with an
// out-of-band model would break the tier's error contract silently. The
// report is nil for a loaded model.
func Attach(ctx context.Context, r *core.Runner, path string, seed int64) (*Model, *Report, error) {
	if path != "" {
		model, err := ReadModel(path)
		if err != nil {
			return nil, nil, err
		}
		r.SetPredictor(model)
		return model, nil, nil
	}
	model, rep, err := Calibrate(ctx, r, Spec{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	if !rep.Clean() {
		return nil, nil, fmt.Errorf("analytic: calibration (seed %d) violates its error band:\n%s", seed, rep)
	}
	r.SetPredictor(model)
	return model, rep, nil
}

// fitCurve fits one (workload, pipeline) family from its training cells.
func fitCurve(tn, wn string, p core.Pipeline, train []int, byCell map[core.Experiment]core.Result) (Curve, error) {
	scale := float64(train[len(train)-1])
	c := Curve{Scale: scale, Metrics: map[string][]float64{}}
	rows := make([][]float64, len(train))
	samples := make([]core.Result, len(train))
	for i, n := range train {
		e := core.Experiment{Target: tn, Workload: wn, Pipeline: p, N: n}
		res, ok := byCell[e]
		if !ok {
			return c, fmt.Errorf("analytic: missing calibration cell %s", e)
		}
		samples[i] = res
		row, err := features(tn, wn, n)
		if err != nil {
			return c, fmt.Errorf("analytic: %s: %w", e, err)
		}
		rows[i] = row
	}
	for _, name := range metricNames {
		ys := make([]float64, len(train))
		for i := range train {
			ys[i] = metricValue(samples[i], name)
		}
		coef, err := fitLinear(rows, ys)
		if err != nil {
			return c, fmt.Errorf("analytic: %s/%s/%s %s: %w", tn, wn, p, name, err)
		}
		c.Metrics[name] = coef
	}

	// Residual: what the structural estimate (the fitted T_set + T_calc +
	// T_sync + T_stall decomposition) misses, as a smooth multiplicative
	// factor in log-size. Fitted against the *fitted* submetrics — the
	// exact expression Predict evaluates — so the residual corrects the
	// model's own structural estimate, not the unreachable true counters.
	ts := make([]float64, len(train))
	zs := make([]float64, len(train))
	for i, n := range train {
		structural := c.metric("config_cycles", rows[i]) + c.metric("calc_cycles", rows[i]) +
			c.metric("sync_cycles", rows[i]) + c.metric("stall_cycles", rows[i])
		actual := float64(samples[i].Cycles)
		if structural <= 0 || actual <= 0 {
			return c, fmt.Errorf("analytic: %s/%s/%s n=%d: degenerate structural estimate (%g) or cycles (%g)", tn, wn, p, n, structural, actual)
		}
		ts[i] = math.Log(float64(n) / scale)
		zs[i] = math.Log(actual / structural)
	}
	resid, err := fitQuadratic(ts, zs)
	if err != nil {
		return c, fmt.Errorf("analytic: %s/%s/%s residual: %w", tn, wn, p, err)
	}
	c.Residual = resid
	return c, nil
}
