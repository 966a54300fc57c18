package core_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"configwall/internal/core"
)

// stubPredictor answers every experiment with a synthetic Analytic result
// whose ops/cycle rank is controlled by N (larger N predicts faster), and
// counts how often it was consulted.
type stubPredictor struct {
	calls atomic.Uint64
	fail  bool
}

func (p *stubPredictor) Predict(e core.Experiment) (core.Result, error) {
	p.calls.Add(1)
	if p.fail {
		return core.Result{}, fmt.Errorf("stub predictor refused")
	}
	res := core.Result{Target: e.Target, Workload: e.Workload, Pipeline: e.Pipeline, N: e.N, Analytic: true}
	res.Cycles = 1000
	res.AccelOps = uint64(e.N) // rank: larger N -> higher ops/cycle
	return res, nil
}

func screenGrid() []core.Experiment {
	return core.Sweep(
		[]string{"opengemm"},
		[]string{core.WorkloadMatmul},
		[]core.Pipeline{core.Baseline, core.AllOptimizations},
		[]int{8, 16, 24},
	)
}

// TestFidelityScreenBypassesSimulation: Screen must never simulate, never
// touch the memo map, and must return the predictor's Analytic result —
// even for a cell whose simulated result the memo already holds.
func TestFidelityScreenBypassesSimulation(t *testing.T) {
	p := &stubPredictor{}
	r := core.NewRunner(2)
	r.SetPredictor(p)
	exps := screenGrid()

	res, err := r.Screen(context.Background(), exps)
	if err != nil {
		t.Fatalf("Screen: %v", err)
	}
	if len(res) != len(exps) {
		t.Fatalf("Screen returned %d results, want %d", len(res), len(exps))
	}
	for i, re := range res {
		if !re.Analytic {
			t.Errorf("result %d not marked Analytic", i)
		}
		if re.N != exps[i].N {
			t.Errorf("result %d out of input order: N=%d want %d", i, re.N, exps[i].N)
		}
	}
	st := r.Snapshot()
	if st.Runs != 0 {
		t.Errorf("Screen simulated %d cells, want 0", st.Runs)
	}
	if st.Predictions != uint64(len(exps)) {
		t.Errorf("Predictions = %d, want %d", st.Predictions, len(exps))
	}
	if r.CacheSize() != 0 {
		t.Errorf("Screen polluted the memo map with %d cells", r.CacheSize())
	}

	// A memoized simulation does not change the answer: Screen predicts.
	if _, err := r.Run(context.Background(), exps[0], core.RunOptions{}); err != nil {
		t.Fatalf("full run: %v", err)
	}
	one, err := r.Screen(context.Background(), exps[:1])
	if err != nil {
		t.Fatalf("Screen over a memoized cell: %v", err)
	}
	if !one[0].Analytic {
		t.Errorf("Screen served the memoized simulation instead of predicting")
	}
	if st := r.Snapshot(); st.Runs != 1 {
		t.Errorf("Runs = %d, want exactly the one explicit Run", st.Runs)
	}
}

// TestFidelityWithoutPredictor: Screen and RunTopK on a runner with no
// predictor must fail with a diagnostic, not simulate.
func TestFidelityWithoutPredictor(t *testing.T) {
	r := core.NewRunner(1)
	exps := screenGrid()
	if _, err := r.Screen(context.Background(), exps); err == nil || !strings.Contains(err.Error(), "no analytic predictor") {
		t.Fatalf("Screen without predictor: err = %v, want 'no analytic predictor'", err)
	}
	if _, err := r.RunTopK(context.Background(), exps, core.RunOptions{}, 1); err == nil || !strings.Contains(err.Error(), "no analytic predictor") {
		t.Fatalf("RunTopK without predictor: err = %v, want 'no analytic predictor'", err)
	}
	if st := r.Snapshot(); st.Runs != 0 {
		t.Errorf("failed screens still simulated %d cells", st.Runs)
	}
}

// TestTopKByPredictedPerf pins the ranking contract: ops/cycle
// descending, ties to the lower input index, output ascending.
func TestTopKByPredictedPerf(t *testing.T) {
	mk := func(ops, cycles uint64) core.Result {
		var r core.Result
		r.AccelOps, r.Cycles = ops, cycles
		return r
	}
	preds := []core.Result{
		mk(10, 100), // 0.1
		mk(50, 100), // 0.5
		mk(50, 100), // 0.5 (tie with 1 -> 1 wins first)
		mk(90, 100), // 0.9
	}
	cases := []struct {
		k    int
		want []int
	}{
		{0, []int{}},
		{-3, []int{}},
		{1, []int{3}},
		{2, []int{1, 3}},
		{3, []int{1, 2, 3}},
		{99, []int{0, 1, 2, 3}},
	}
	for _, c := range cases {
		got := core.TopKByPredictedPerf(preds, c.k)
		if len(got) != len(c.want) {
			t.Errorf("k=%d: got %v, want %v", c.k, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("k=%d: got %v, want %v", c.k, got, c.want)
				break
			}
		}
	}
}

// TestRunTopKMergesTiers: the chosen cells come back simulated, the rest
// analytic, in input order; a repeat reuses the memoized simulations.
func TestRunTopKMergesTiers(t *testing.T) {
	p := &stubPredictor{}
	r := core.NewRunner(2)
	r.SetPredictor(p)
	exps := screenGrid() // ranking: larger N predicts faster

	res, err := r.RunTopK(context.Background(), exps, core.RunOptions{}, 2)
	if err != nil {
		t.Fatalf("RunTopK: %v", err)
	}
	simulated := 0
	for i, re := range res {
		if re.N != exps[i].N || re.Pipeline != exps[i].Pipeline {
			t.Fatalf("result %d out of input order", i)
		}
		if !re.Analytic {
			simulated++
			if re.N != 24 {
				t.Errorf("simulated cell %d has N=%d; top-2 by stub ranking are the N=24 cells", i, re.N)
			}
		}
	}
	if simulated != 2 {
		t.Errorf("%d simulated cells, want 2", simulated)
	}
	if st := r.Snapshot(); st.Runs != 2 {
		t.Errorf("Runs = %d, want 2", st.Runs)
	}

	// Re-sweeping the same top-k simulates nothing new.
	if _, err := r.RunTopK(context.Background(), exps, core.RunOptions{}, 2); err != nil {
		t.Fatalf("RunTopK repeat: %v", err)
	}
	if st := r.Snapshot(); st.Runs != 2 {
		t.Errorf("repeat sweep re-simulated: Runs = %d, want 2", st.Runs)
	}

	// k >= len degenerates to a plain full sweep.
	full, err := r.RunTopK(context.Background(), exps, core.RunOptions{}, len(exps))
	if err != nil {
		t.Fatalf("RunTopK(all): %v", err)
	}
	for i, re := range full {
		if re.Analytic {
			t.Errorf("k=len result %d still analytic", i)
		}
	}
}
