package analytic

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
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
		calModel, calReport, calErr = Calibrate(context.Background(), calRunner, Spec{Seed: 1})
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
	// gemmini matmul n=160 tiles at 32 (25 launches), n=192 at 64 (9
	// launches): the feature vector must see the discontinuity.
	f160, err := features("gemmini", core.WorkloadMatmul, 160)
	if err != nil {
		t.Fatalf("features(gemmini, matmul, 160): %v", err)
	}
	f192, err := features("gemmini", core.WorkloadMatmul, 192)
	if err != nil {
		t.Fatalf("features(gemmini, matmul, 192): %v", err)
	}
	if f160[1] != 25 || f192[1] != 9 {
		t.Errorf("launch features = %v, %v; want 25, 9", f160[1], f192[1])
	}
	if len(f160) != numFeatures {
		t.Errorf("feature vector has %d entries, want %d", len(f160), numFeatures)
	}
	if _, err := features("gemmini", "conv9000", 64); err == nil {
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
// (and half of the acceptance criterion): for both targets and every
// registered pipeline, cycle predictions on cells the fit never saw stay
// within the documented band — geomean ≤ 15%, every cell ≤ 30%.
func TestHeldOutErrorWithinBand(t *testing.T) {
	model, report, _ := calibrated(t)

	if got := model.TargetNames(); len(got) < 2 {
		t.Fatalf("calibrated targets %v, want both registered targets", got)
	}
	if len(report.Targets) != len(model.Targets) {
		t.Fatalf("report covers %d targets, model %d", len(report.Targets), len(model.Targets))
	}
	for _, tr := range report.Targets {
		if len(tr.Cells) == 0 {
			t.Fatalf("%s: no held-out cells", tr.Target)
		}
		// Every registered pipeline must appear among the held-out cells.
		pipes := map[core.Pipeline]bool{}
		for _, c := range tr.Cells {
			pipes[c.Exp.Pipeline] = true
			if c.Err > report.Band.PerCell {
				t.Errorf("%s: held-out cell %s error %.1f%% exceeds per-cell band %.0f%% (predicted %.0f, actual %.0f)",
					tr.Target, c.Exp, 100*c.Err, 100*report.Band.PerCell, c.Predicted, c.Actual)
			}
		}
		for _, p := range core.Pipelines {
			if !pipes[p] {
				t.Errorf("%s: pipeline %s has no held-out validation cells", tr.Target, p)
			}
		}
		if tr.GeomeanErr > report.Band.Geomean {
			t.Errorf("%s: held-out geomean cycle error %.1f%% exceeds band %.0f%%", tr.Target, 100*tr.GeomeanErr, 100*report.Band.Geomean)
		}
		t.Logf("%s: %d held-out cells, geomean %.2f%%, max %.2f%%", tr.Target, len(tr.Cells), 100*tr.GeomeanErr, 100*tr.MaxErr)
	}
	if !report.Clean() {
		t.Errorf("report.Clean() = false with no individual violation reported above")
	}
	if !strings.Contains(report.String(), "geomean cycle error") {
		t.Errorf("report rendering missing summary line:\n%s", report.String())
	}
}

// TestCalibrateDeterminism: refitting with the same seed yields
// byte-identical constants (the satellite determinism requirement). The
// second fit reuses the runner's memoized cells, so this also pins that
// fitting is a pure function of the simulated results.
func TestCalibrateDeterminism(t *testing.T) {
	model, _, runner := calibrated(t)
	again, _, err := Calibrate(context.Background(), runner, Spec{Seed: 1})
	if err != nil {
		t.Fatalf("refit: %v", err)
	}
	b1, err := model.MarshalPretty()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	b2, err := again.MarshalPretty()
	if err != nil {
		t.Fatalf("marshal refit: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same-seed refit is not byte-identical (%d vs %d bytes)", len(b1), len(b2))
	}
	// A different seed changes the split, hence (almost surely) the fit.
	other, _, err := Calibrate(context.Background(), runner, Spec{Seed: 2})
	if err != nil {
		t.Fatalf("seed-2 fit: %v", err)
	}
	b3, _ := other.MarshalPretty()
	if bytes.Equal(b1, b3) {
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
	grid := core.Sweep(model.TargetNames(), core.WorkloadNames(), core.Pipelines, sizes)

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
	grid := core.Sweep(model.TargetNames(), core.WorkloadNames(), core.Pipelines, []int{32, 64, 96})

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
	if _, err := model.Predict(core.Experiment{Target: "warp", Workload: core.WorkloadMatmul, N: 64}); err == nil || !strings.Contains(err.Error(), "not calibrated") {
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
// closed-form — two small allocations per cell, which is what lets a
// full-grid screen run thousands of cells per simulated one. The count is
// machine-independent, so it gates here rather than in a timed benchmark.
func TestPredictAllocs(t *testing.T) {
	model, _, _ := calibrated(t)
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 32}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := model.Predict(e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Model.Predict allocates %.0f times per cell, want <= 2", allocs)
	}
}

// TestPredictedSavings: the model must predict that AllOptimizations
// saves cycles over Baseline on a config-bound cell — the qualitative
// claim the whole paper rests on.
func TestPredictedSavings(t *testing.T) {
	model, _, _ := calibrated(t)
	for _, tn := range model.TargetNames() {
		saved, err := model.PredictedSavings(tn, core.WorkloadMatmul, core.Baseline, core.AllOptimizations, 128)
		if err != nil {
			t.Fatalf("%s: PredictedSavings: %v", tn, err)
		}
		if saved <= 0 {
			t.Errorf("%s: predicted AllOptimizations saves %.0f cycles over Baseline at n=128, want > 0", tn, saved)
		}
	}
}

func TestModelRoundTrip(t *testing.T) {
	model, _, _ := calibrated(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := model.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	loaded, err := ReadModel(path)
	if err != nil {
		t.Fatalf("ReadModel: %v", err)
	}
	b1, _ := model.MarshalPretty()
	b2, _ := loaded.MarshalPretty()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("round trip not byte-identical")
	}
	// The loaded model predicts identically.
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 128}
	r1, err1 := model.Predict(e)
	r2, err2 := loaded.Predict(e)
	if err1 != nil || err2 != nil || r1.Cycles != r2.Cycles || r1.Counters != r2.Counters {
		t.Fatalf("loaded model predicts differently: %v/%v, %v/%v", r1, err1, r2, err2)
	}

	// Schema mismatches are rejected with a refit hint.
	stale := *loaded
	stale.Schema = Schema + 1
	if err := stale.WriteFile(path); err != nil {
		t.Fatalf("WriteFile stale: %v", err)
	}
	if _, err := ReadModel(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("stale schema accepted: %v", err)
	}
}
