package core_test

import (
	"context"
	"reflect"
	"testing"

	"configwall/internal/core"
)

// flipRunOptionsField returns the zero RunOptions with field i alone set to
// a non-zero value. A field kind it cannot flip fails the test: whoever adds
// the field teaches the test, and so meets the rule it enforces.
func flipRunOptionsField(t *testing.T, i int) core.RunOptions {
	t.Helper()
	var opts core.RunOptions
	f := reflect.ValueOf(&opts).Elem().Field(i)
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(1)
	default:
		t.Fatalf("RunOptions.%s: no rule to flip a %s field", reflect.TypeOf(opts).Field(i).Name, f.Kind())
	}
	return opts
}

// TestRunOptionsIsTheCellName: RunOptions is, with the Experiment, the name
// of a cell, so every field — reflected, so a field added later is held to
// it too — must change the store fingerprint and select a different memo
// cell. (internal/serve holds the same fields to the wire.) A per-request
// knob that is not part of the name fails here instead of silently not
// keying, or not travelling.
func TestRunOptionsIsTheCellName(t *testing.T) {
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8}
	var base core.RunOptions
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		flipped := flipRunOptionsField(t, i)
		if core.FingerprintKey(e, base) == core.FingerprintKey(e, flipped) {
			t.Errorf("RunOptions.%s does not change FingerprintKey: two cells would share a store entry", name)
		}
		r := core.NewRunner(1)
		if !r.Preload(e, flipped, core.Result{N: e.N}) {
			t.Fatalf("RunOptions.%s: Preload into an empty runner refused", name)
		}
		if _, ok := r.Peek(e, flipped); !ok {
			t.Errorf("RunOptions.%s: Peek missed the cell Preload published under the same options", name)
		}
		if _, ok := r.Peek(e, base); ok {
			t.Errorf("RunOptions.%s does not key the memo: the zero options were served its cell", name)
		}
	}
}

// TestSimulatingCallsNeverPredict: Run, RunAll and RunAdmitted mean
// simulated ground truth — a predictor on the runner is never consulted,
// and nothing they return is Analytic.
func TestSimulatingCallsNeverPredict(t *testing.T) {
	p := &stubPredictor{}
	r := core.NewRunner(2)
	r.SetPredictor(p)
	exps := screenGrid()
	ctx := context.Background()
	if _, err := r.Run(ctx, exps[0], core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err, _ := r.RunAdmitted(ctx, exps[1], core.RunOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	results, err := r.RunAll(ctx, exps, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Analytic {
			t.Errorf("RunAll result %d is Analytic", i)
		}
	}
	if n := p.calls.Load(); n != 0 {
		t.Errorf("simulating calls consulted the predictor %d times", n)
	}
	if st := r.Snapshot(); st.Predictions != 0 || st.Runs != uint64(len(exps)) {
		t.Errorf("counters: %d predictions, %d runs; want 0, %d", st.Predictions, st.Runs, len(exps))
	}
}

// TestRunTopKIgnoresMemo: what RunTopK returns is a function of (exps, k,
// model). A cell the runner simulated earlier but the ranking does not
// choose comes back as a prediction, not as whatever the memo holds — the
// hidden state cwbench -fidelity topk used to print (DESIGN.md §10).
func TestRunTopKIgnoresMemo(t *testing.T) {
	r := core.NewRunner(2)
	r.SetPredictor(&stubPredictor{})
	exps := screenGrid() // ranking: larger N predicts faster, so exps[0] (N=8) is never in the top 2
	if _, err := r.Run(context.Background(), exps[0], core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunTopK(context.Background(), exps, core.RunOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Analytic {
		t.Errorf("an unchosen cell was answered from the memo: RunTopK depends on what ran before it")
	}
}
