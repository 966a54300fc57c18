package tune_test

// Integration tests: full campaigns against a real in-process cwserve
// daemon, with every measurement going over HTTP through the
// serve.Client retry layer — the production path of cmd/cwtune.

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"configwall/internal/core"
	"configwall/internal/serve"
	"configwall/internal/tune"
)

// sizeRankPredictor is a stand-in analytic tier for integration tests:
// instant Analytic results whose predicted ops/cycle grows with N, so
// flash's screen sweep has a surrogate without a boot-time calibration.
type sizeRankPredictor struct{}

func (sizeRankPredictor) Predict(e core.Experiment) (core.Result, error) {
	res := core.Result{Target: e.Target, Workload: e.Workload, Pipeline: e.Pipeline, N: e.N, Analytic: true}
	res.Cycles = 1000
	res.AccelOps = uint64(e.N)
	if e.Pipeline == core.AllOptimizations {
		res.AccelOps *= 2
	}
	return res, nil
}

// newDaemon boots a serve.Server over a fresh runner on an httptest
// listener and returns the runner, the base URL and a client.
func newDaemon(t *testing.T, pred core.Predictor) (*core.Runner, string, *serve.Client) {
	t.Helper()
	runner := core.NewRunner(4)
	runner.SetPredictor(pred)
	sv, err := serve.New(serve.Options{Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv)
	t.Cleanup(func() { ts.Close(); sv.Close() })
	return runner, ts.URL, serve.NewClient(ts.URL)
}

// discoverSpace builds the small opengemm/matmul space from the daemon's
// own registry response, like cwtune does.
func discoverSpace(t *testing.T, c *serve.Client, maxSize int, seed int64) tune.Space {
	t.Helper()
	info, err := c.Registry(context.Background(), serve.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := tune.SpaceFromRegistry(info, tune.Filters{
		Targets:   []string{"opengemm"},
		Workloads: []string{core.WorkloadMatmul},
		MaxSize:   maxSize,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestCampaignAgainstDaemonDeterministic: a full campaign (all three
// strategies, validation on) over a live daemon must render byte-identical
// reports across reruns with the same seed, with flash's screening done
// analytically (no extra simulations).
func TestCampaignAgainstDaemonDeterministic(t *testing.T) {
	runner, _, c := newDaemon(t, sizeRankPredictor{})
	space := discoverSpace(t, c, 32, 1)
	if len(space.Cells) == 0 || len(space.Holdout) == 0 {
		t.Fatalf("space = %d cells, %d holdout; want both non-empty", len(space.Cells), len(space.Holdout))
	}

	campaign := func() string {
		rep, err := tune.Run(context.Background(), tune.Config{
			Space:      space,
			Eval:       &tune.ClientEvaluator{Client: c, Retry: serve.RetryPolicy{Seed: 1}},
			Strategies: []string{"random", "halving", "flash"},
			Budget:     5,
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	rep1 := campaign()
	rep2 := campaign()
	if rep1 != rep2 {
		t.Errorf("same-seed campaign reports differ:\n--- first\n%s\n--- second\n%s", rep1, rep2)
	}
	for _, want := range []string{"cwtune campaign:", "exhaustive best:", "sims-to-best", "acceptance: flash", "validation (held-out sizes"} {
		if !strings.Contains(rep1, want) {
			t.Errorf("report lacks %q:\n%s", want, rep1)
		}
	}

	st := runner.Snapshot()
	if st.Predictions == 0 {
		t.Errorf("flash never hit the analytic tier (predictions = 0)")
	}
	// Everything simulated at most once: the searchable cells plus
	// whatever holdout cells validation touched.
	if max := uint64(len(space.Cells) + len(space.Holdout)); st.Runs > max {
		t.Errorf("daemon simulated %d cells, space only has %d", st.Runs, max)
	}
}

// TestFlashNeedsAnalyticTier: a screen sweep against a daemon without a
// predictor must fail the flash strategy rather than silently degrade.
func TestFlashNeedsAnalyticTier(t *testing.T) {
	_, _, c := newDaemon(t, nil)
	space := discoverSpace(t, c, 32, 1)
	info, err := c.Registry(context.Background(), serve.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Analytic {
		t.Fatal("daemon without predictor advertises the analytic tier")
	}
	_, err = tune.Run(context.Background(), tune.Config{
		Space:      space,
		Eval:       &tune.ClientEvaluator{Client: c, Retry: serve.RetryPolicy{Seed: 1}},
		Strategies: []string{"flash"},
		Budget:     3,
		Seed:       1,
	})
	if err == nil {
		t.Fatal("flash succeeded against a daemon with no analytic tier")
	}
}

// TestScreenNeverSimulates: a screen is a prediction whatever shape the
// cell list has. A ragged list — two (target, workload) groups, neither a
// full pipelines × sizes grid, one of them a single cell — must come back
// all Analytic, in input order, with zero simulations on the daemon:
// ragged groups are screened cell by cell as 1 × 1 sweeps, never through
// /v1/run, which has no way to ask for a prediction and always simulates.
func TestScreenNeverSimulates(t *testing.T) {
	runner, _, c := newDaemon(t, sizeRankPredictor{})
	cells := []core.Experiment{
		{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8},
		{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 16},
		{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 16},
		{Target: "gemmini", Workload: core.WorkloadMatmul, Pipeline: core.DedupOnly, N: 32},
	}
	eval := &tune.ClientEvaluator{Client: c, Retry: serve.RetryPolicy{Seed: 1}}
	results, err := eval.Screen(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !res.Analytic {
			t.Errorf("cell %s was simulated, not screened", cells[i])
		}
		if res.Target != cells[i].Target || res.Pipeline != cells[i].Pipeline || res.N != cells[i].N {
			t.Errorf("result %d answers %s/%s/%d, want %s", i, res.Target, res.Pipeline, res.N, cells[i])
		}
	}
	if st := runner.Snapshot(); st.Runs != 0 || st.Predictions != uint64(len(cells)) {
		t.Errorf("daemon counters after a screen: %d runs, %d predictions; want 0, %d", st.Runs, st.Predictions, len(cells))
	}
}
