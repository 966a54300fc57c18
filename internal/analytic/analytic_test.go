package analytic

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"configwall/internal/core"
)

// The calibration grid simulates a couple hundred cells (~seconds), so
// every test shares one fitted model via this harness.
var (
	calOnce   sync.Once
	calRunner *core.Runner
	calModel  *Model
	calReport *Report
	calErr    error
)

func calibrated(t *testing.T) (*Model, *Report, *core.Runner) {
	t.Helper()
	calOnce.Do(func() {
		calRunner = core.NewRunner(0)
		calModel, calReport, calErr = Calibrate(context.Background(), calRunner, 1)
	})
	if calErr != nil {
		t.Fatalf("Calibrate: %v", calErr)
	}
	return calModel, calReport, calRunner
}

func TestFitLinearRecoversExact(t *testing.T) {
	// y = 2·x0 + 3·x1 + 4·x2 sampled exactly must round-trip.
	xs := [][]float64{
		{1, 1, 2},
		{1, 2, 5},
		{1, 4, 3},
		{1, 8, 17},
		{1, 16, 9},
	}
	want := []float64{2, 3, 4}
	ys := make([]float64, len(xs))
	for i, row := range xs {
		ys[i] = evalLinear(want, row)
	}
	c, err := fitLinear(xs, ys)
	if err != nil {
		t.Fatalf("fitLinear: %v", err)
	}
	for i := range want {
		if math.Abs(c[i]-want[i]) > 1e-4 {
			t.Errorf("coefficient %d = %v, want %v", i, c[i], want[i])
		}
	}
	// Collinear columns (x2 = 2·x1) must not blow up: the ridge term
	// keeps the system solvable and predictions exact on the span.
	col := [][]float64{{1, 1, 2}, {1, 2, 4}, {1, 4, 8}, {1, 8, 16}}
	cys := []float64{11, 21, 41, 81} // y = 1 + 10·x1
	cc, err := fitLinear(col, cys)
	if err != nil {
		t.Fatalf("fitLinear collinear: %v", err)
	}
	for i, row := range col {
		if got := evalLinear(cc, row); math.Abs(got-cys[i]) > 1e-3 {
			t.Errorf("collinear fit predicts %v at row %d, want %v", got, i, cys[i])
		}
	}
	if _, err := fitLinear(xs[:2], ys[:2]); err == nil {
		t.Errorf("fitLinear accepted 2 samples for 3 coefficients")
	}
}

func TestFeaturesTrackTiling(t *testing.T) {
	g, err := core.LookupTarget("gemmini")
	if err != nil {
		t.Fatal(err)
	}
	// gemmini matmul n=160 tiles at 32 (25 launches), n=192 at 64 (9
	// launches): the feature vector must see the discontinuity.
	f160, err := features(g, core.WorkloadMatmul, 160)
	if err != nil {
		t.Fatalf("features(gemmini, matmul, 160): %v", err)
	}
	f192, err := features(g, core.WorkloadMatmul, 192)
	if err != nil {
		t.Fatalf("features(gemmini, matmul, 192): %v", err)
	}
	if f160[1] != 25 || f192[1] != 9 {
		t.Errorf("launch features = %v, %v; want 25, 9", f160[1], f192[1])
	}
	if _, err := features(g, "conv9000", 64); err == nil {
		t.Errorf("features accepted an unknown workload")
	}
}

func TestFitQuadraticRecoversExact(t *testing.T) {
	ts := []float64{-2, -1.5, -1, -0.5, 0}
	zs := make([]float64, len(ts))
	for i, x := range ts {
		zs[i] = 0.3 - 0.2*x + 0.05*x*x
	}
	q, err := fitQuadratic(ts, zs)
	if err != nil {
		t.Fatalf("fitQuadratic: %v", err)
	}
	want := [3]float64{0.3, -0.2, 0.05}
	for i := range want {
		if math.Abs(q[i]-want[i]) > 1e-9 {
			t.Errorf("coefficient %d = %v, want %v", i, q[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}} // rank 1
	if _, err := solve(a, []float64{1, 2}); err == nil {
		t.Fatalf("solve accepted a singular system")
	}
}

func TestSplitSizesDeterministicAndDisjoint(t *testing.T) {
	train1, hold1, err := splitSizes(DefaultSizes, 7)
	if err != nil {
		t.Fatalf("splitSizes: %v", err)
	}
	train2, hold2, _ := splitSizes(DefaultSizes, 7)
	if !equalInts(train1, train2) || !equalInts(hold1, hold2) {
		t.Fatalf("same seed split differs: %v/%v vs %v/%v", train1, hold1, train2, hold2)
	}
	if len(train1)+len(hold1) != len(DefaultSizes) {
		t.Fatalf("split lost sizes: %v + %v from %v", train1, hold1, DefaultSizes)
	}
	seen := map[int]bool{}
	for _, n := range append(append([]int(nil), train1...), hold1...) {
		if seen[n] {
			t.Fatalf("size %d in both halves", n)
		}
		seen[n] = true
	}
	// Endpoints always train: held-out validation is interpolation.
	if train1[0] != 32 || train1[len(train1)-1] != 256 {
		t.Errorf("endpoints not pinned to training: %v", train1)
	}
	if len(hold1) < 1 || len(train1) < 4 {
		t.Errorf("degenerate split: train %v holdout %v", train1, hold1)
	}
	if _, _, err := splitSizes([]int{32, 64, 96}, 1); err == nil {
		t.Errorf("splitSizes accepted a 3-size grid")
	}
	if _, _, err := splitSizes([]int{0, 32, 64, 96, 128, 160}, 1); err == nil {
		t.Errorf("splitSizes accepted a non-positive size")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHeldOutErrorWithinBand is the calibration-hygiene property test
// (and half of the acceptance criterion): for every distinct held-out pair
// the seeded split can draw — the interior of DefaultSizes gives C(6,2) =
// 15, and seeds 1…50 reach all of them — and for both targets and every
// registered pipeline, cycle predictions on cells the fit never saw stay
// within the documented band: geomean ≤ 15%, every cell ≤ 30%. The fits
// share one runner, so the grid is simulated once.
func TestHeldOutErrorWithinBand(t *testing.T) {
	_, _, runner := calibrated(t)
	pairs := map[[2]int]bool{}
	for seed := int64(1); seed <= 50; seed++ {
		_, holdout, err := splitSizes(DefaultSizes, seed)
		if err != nil {
			t.Fatalf("splitSizes(seed %d): %v", seed, err)
		}
		if len(holdout) != 2 {
			t.Fatalf("seed %d holds out %v, want two sizes", seed, holdout)
		}
		pair := [2]int{holdout[0], holdout[1]}
		if pairs[pair] {
			continue
		}
		pairs[pair] = true
		_, report, err := Calibrate(context.Background(), runner, seed)
		if err != nil {
			t.Fatalf("Calibrate(seed %d): %v", seed, err)
		}
		checkBand(t, pair, report)
	}
	if len(pairs) != 15 {
		t.Errorf("seeds 1…50 reach %d held-out pairs, want all 15", len(pairs))
	}
}

// checkBand holds one fit's held-out report to DefaultBand.
func checkBand(t *testing.T, pair [2]int, report *Report) {
	t.Helper()
	if len(report.Targets) != len(core.TargetNames()) || len(report.Targets) < 2 {
		t.Fatalf("held out %v: report covers %d targets, want every registered one", pair, len(report.Targets))
	}
	for _, tr := range report.Targets {
		if len(tr.Cells) == 0 {
			t.Fatalf("held out %v: %s: no held-out cells", pair, tr.Target)
		}
		// Every registered pipeline must appear among the held-out cells.
		pipes := map[core.Pipeline]bool{}
		for _, c := range tr.Cells {
			pipes[c.Exp.Pipeline] = true
			if c.Err > DefaultBand.PerCell {
				t.Errorf("held out %v: %s: cell %s error %.1f%% exceeds per-cell band %.0f%% (predicted %.0f, actual %.0f)",
					pair, tr.Target, c.Exp, 100*c.Err, 100*DefaultBand.PerCell, c.Predicted, c.Actual)
			}
		}
		for _, p := range core.Pipelines {
			if !pipes[p] {
				t.Errorf("held out %v: %s: pipeline %s has no held-out validation cells", pair, tr.Target, p)
			}
		}
		if tr.GeomeanErr > DefaultBand.Geomean {
			t.Errorf("held out %v: %s: geomean cycle error %.1f%% exceeds band %.0f%%", pair, tr.Target, 100*tr.GeomeanErr, 100*DefaultBand.Geomean)
		}
		t.Logf("held out %v: %s: %d cells, geomean %.2f%%, max %.2f%%", pair, tr.Target, len(tr.Cells), 100*tr.GeomeanErr, 100*tr.MaxErr)
	}
	if !report.Clean() {
		t.Errorf("held out %v: report.Clean() = false with no individual violation reported above", pair)
	}
	if !strings.Contains(report.String(), "geomean cycle error") {
		t.Errorf("held out %v: report rendering missing summary line:\n%s", pair, report)
	}
}

// TestCalibrateDeterminism: refitting with the same seed yields the same
// model and report. The second fit reuses the runner's memoized cells, so
// this also pins that fitting is a pure function of the simulated results.
func TestCalibrateDeterminism(t *testing.T) {
	model, report, runner := calibrated(t)
	again, againReport, err := Calibrate(context.Background(), runner, 1)
	if err != nil {
		t.Fatalf("refit: %v", err)
	}
	if !reflect.DeepEqual(model, again) || !reflect.DeepEqual(report, againReport) {
		t.Fatalf("same-seed refit differs")
	}
	// A different seed changes the split, hence (almost surely) the fit.
	other, _, err := Calibrate(context.Background(), runner, 2)
	if err != nil {
		t.Fatalf("seed-2 fit: %v", err)
	}
	if reflect.DeepEqual(model, other) {
		t.Errorf("seed 1 and seed 2 produced identical models; split shuffle is not seeded")
	}
}

// TestScreenFullGridZeroSimulations is the acceptance criterion:
// analytically screening a full Figure-11-class grid (both targets, every
// workload and pipeline, the Figure 11 sizes) performs zero simulator
// invocations, counter-asserted.
func TestScreenFullGridZeroSimulations(t *testing.T) {
	model, _, _ := calibrated(t)
	r := core.NewRunner(0)
	r.SetPredictor(model)
	// The Figure 11 sizes, minus those whose rectmm shape cannot build on
	// gemmini (n=16 halves to an 8-wide output): the analytic tier shares
	// the simulator's feasibility rules, so screening rejects exactly the
	// cells a full-fidelity sweep would reject.
	var sizes []int
	for _, n := range core.Figure11Sizes {
		if n%32 == 0 {
			sizes = append(sizes, n)
		}
	}
	grid := core.Sweep(core.TargetNames(), core.WorkloadNames(), core.Pipelines, sizes)

	res, err := r.Screen(context.Background(), grid)
	if err != nil {
		t.Fatalf("Screen: %v", err)
	}
	for i, re := range res {
		if !re.Analytic {
			t.Fatalf("grid cell %d (%s) not Analytic", i, grid[i])
		}
		if re.Cycles == 0 {
			t.Errorf("grid cell %s predicted zero cycles", grid[i])
		}
	}
	st := r.Snapshot()
	if st.Runs != 0 {
		t.Fatalf("screening simulated %d cells, want 0", st.Runs)
	}
	if st.Predictions != uint64(len(grid)) {
		t.Errorf("Predictions = %d, want %d (one per grid cell)", st.Predictions, len(grid))
	}
	if st.StoreHits+st.StoreMisses != 0 {
		t.Errorf("screening touched the store (%d hits, %d misses)", st.StoreHits, st.StoreMisses)
	}
}

// TestTopKSweepSpeedup is the acceptance criterion: a top-K
// multi-fidelity sweep on a cold store must be at least 10x faster
// end-to-end than the same sweep fully simulated. Both runs are serial
// (workers=1) so the ratio measures work, not scheduling.
func TestTopKSweepSpeedup(t *testing.T) {
	model, _, _ := calibrated(t)
	grid := core.Sweep(core.TargetNames(), core.WorkloadNames(), core.Pipelines, []int{32, 64, 96})

	cold := core.NewRunner(1)
	start := time.Now()
	if _, err := cold.RunAll(context.Background(), grid, core.RunOptions{}); err != nil {
		t.Fatalf("full sweep: %v", err)
	}
	fullDur := time.Since(start)

	topk := core.NewRunner(1)

	topk.SetPredictor(model)
	start = time.Now()
	res, err := topk.RunTopK(context.Background(), grid, core.RunOptions{}, 1)
	if err != nil {
		t.Fatalf("top-k sweep: %v", err)
	}
	topkDur := time.Since(start)

	simulated := 0
	for _, re := range res {
		if !re.Analytic {
			simulated++
		}
	}
	if simulated != 1 {
		t.Fatalf("top-1 sweep simulated %d cells, want 1", simulated)
	}
	if st := topk.Snapshot(); st.Runs != 1 || st.Predictions != uint64(len(grid)) {
		t.Fatalf("top-1 sweep counters: %d runs, %d predictions; want 1, %d", st.Runs, st.Predictions, len(grid))
	}
	if fullDur < 10*topkDur {
		t.Errorf("top-k sweep not >=10x faster: full %v vs top-k %v (%.1fx)", fullDur, topkDur, float64(fullDur)/float64(topkDur))
	}
	t.Logf("cold full sweep %v, top-1 multi-fidelity sweep %v (%.0fx)", fullDur, topkDur, float64(fullDur)/float64(topkDur))
}

func TestPredictErrors(t *testing.T) {
	model, _, _ := calibrated(t)
	if _, err := model.Predict(core.Experiment{Target: "warp", Workload: core.WorkloadMatmul, N: 64}); err == nil || !strings.Contains(err.Error(), "no calibrated curve") {
		t.Errorf("unknown target: err = %v", err)
	}
	if _, err := model.Predict(core.Experiment{Target: "gemmini", Workload: "conv9000", N: 64}); err == nil || !strings.Contains(err.Error(), "no calibrated curve") {
		t.Errorf("unknown workload: err = %v", err)
	}
	if _, err := model.Predict(core.Experiment{Target: "gemmini", Workload: core.WorkloadMatmul, N: 0}); err == nil {
		t.Errorf("non-positive size accepted")
	}
	var empty Model
	if _, err := empty.Predict(core.Experiment{Target: "gemmini", Workload: core.WorkloadMatmul, N: 64}); err == nil {
		t.Errorf("zero model predicted")
	}
}

// TestPredictAllocs: the screening tier is cheap because a prediction is
// closed-form — no allocation per cell, which is what lets a full-grid
// screen run thousands of cells per simulated one. The count is
// machine-independent, so it gates here rather than in a timed benchmark.
func TestPredictAllocs(t *testing.T) {
	model, _, _ := calibrated(t)
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 32}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := model.Predict(e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Model.Predict allocates %.0f times per cell, want 0", allocs)
	}
}

// TestPredictedSavings: the model must predict that AllOptimizations
// saves cycles over Baseline on a config-bound cell — the qualitative
// claim the whole paper rests on.
func TestPredictedSavings(t *testing.T) {
	model, _, _ := calibrated(t)
	for _, tn := range core.TargetNames() {
		var cycles [2]uint64
		for i, p := range []core.Pipeline{core.Baseline, core.AllOptimizations} {
			res, err := model.Predict(core.Experiment{Target: tn, Workload: core.WorkloadMatmul, Pipeline: p, N: 128})
			if err != nil {
				t.Fatalf("%s: Predict(%s): %v", tn, p, err)
			}
			cycles[i] = res.Cycles
		}
		if cycles[1] >= cycles[0] {
			t.Errorf("%s: predicted AllOptimizations %d cycles vs Baseline %d at n=128, want fewer", tn, cycles[1], cycles[0])
		}
	}
}
