package tune_test

// Unit tests for the search subsystem, against a stub evaluator with
// synthetic (and separately controllable) truth and surrogate surfaces —
// strategy mechanics are checked without a simulator in the loop.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"configwall/internal/core"
	"configwall/internal/serve"
	"configwall/internal/tune"
)

// stubEval is a synthetic Evaluator: truth gives the measured ops (at a
// fixed 1000 cycles, so ops/cycle ordering follows it), pred the
// surrogate's predicted ops. cycles overrides per-cell runtime.
type stubEval struct {
	truth    func(e core.Experiment) uint64
	pred     func(e core.Experiment) uint64
	cycles   func(e core.Experiment) uint64
	measures int
	screens  int
}

func (s *stubEval) result(e core.Experiment, ops uint64, analytic bool) core.Result {
	res := core.Result{Target: e.Target, Workload: e.Workload, Pipeline: e.Pipeline, N: e.N, Analytic: analytic}
	res.Cycles = 1000
	if s.cycles != nil {
		res.Cycles = s.cycles(e)
	}
	res.AccelOps = ops * res.Cycles / 1000
	return res
}

func (s *stubEval) Measure(_ context.Context, e core.Experiment) (core.Result, error) {
	s.measures++
	return s.result(e, s.truth(e), false), nil
}

func (s *stubEval) Screen(_ context.Context, exps []core.Experiment) ([]core.Result, error) {
	s.screens++
	out := make([]core.Result, len(exps))
	for i, e := range exps {
		pred := s.truth
		if s.pred != nil {
			pred = s.pred
		}
		out[i] = s.result(e, pred(e), true)
	}
	return out, nil
}

// gridSpace builds a deterministic cross-product space.
func gridSpace(pipes []core.Pipeline, sizes []int) []core.Experiment {
	var cells []core.Experiment
	for _, p := range pipes {
		for _, n := range sizes {
			cells = append(cells, core.Experiment{Target: "opengemm", Workload: "matmul", Pipeline: p, N: n})
		}
	}
	return cells
}

func TestSessionBudgetAndMemo(t *testing.T) {
	eval := &stubEval{truth: func(e core.Experiment) uint64 { return uint64(e.N) }}
	space := gridSpace([]core.Pipeline{core.Baseline}, []int{8, 16, 24, 32, 48, 64})
	s := tune.NewSession(space, eval, 3, 1)

	for _, i := range []int{0, 1, 0, 2} { // the repeated 0 must be free
		if _, err := s.Measure(context.Background(), i); err != nil {
			t.Fatalf("Measure(%d): %v", i, err)
		}
	}
	if eval.measures != 3 || s.Sims() != 3 {
		t.Errorf("measures = %d, Sims = %d, want 3 and 3", eval.measures, s.Sims())
	}
	if _, err := s.Measure(context.Background(), 3); !errors.Is(err, tune.ErrBudgetExhausted) {
		t.Errorf("over-budget Measure err = %v, want ErrBudgetExhausted", err)
	}
	if _, err := s.Measure(context.Background(), 1); err != nil {
		t.Errorf("memoized re-measure after exhaustion failed: %v", err)
	}
	if i, res, ok := s.Best(); !ok || space[i].N != 24 || res.N != 24 {
		t.Errorf("Best = (%d, n=%d, %v), want the n=24 cell", i, res.N, ok)
	}
}

func TestStrategyByNameUnknownListsValidNames(t *testing.T) {
	_, err := tune.StrategyByName("gradient")
	if err == nil {
		t.Fatal("StrategyByName accepted an unknown name")
	}
	for _, name := range tune.StrategyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
	want := []string{"exhaustive", "flash", "halving", "random"}
	if got := tune.StrategyNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("StrategyNames() = %v, want %v", got, want)
	}
}

func TestRandomSearchSeedDeterminism(t *testing.T) {
	space := gridSpace(core.Pipelines, []int{8, 16, 24, 32})
	order := func(seed int64) []int {
		eval := &stubEval{truth: func(e core.Experiment) uint64 { return uint64(e.N) }}
		s := tune.NewSession(space, eval, 6, seed)
		strat, err := tune.StrategyByName("random")
		if err != nil {
			t.Fatal(err)
		}
		if err := strat.Search(context.Background(), s); err != nil {
			t.Fatal(err)
		}
		return append([]int(nil), s.Order()...)
	}
	a, b := order(7), order(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed gave different orders: %v vs %v", a, b)
	}
	if c := order(8); reflect.DeepEqual(a, c) {
		t.Errorf("seeds 7 and 8 gave the same order %v", a)
	}
	if len(a) != 6 {
		t.Errorf("random measured %d cells, want the budget of 6", len(a))
	}
}

// TestFlashMeasuresInPredictedOrder: flash must spend its budget strictly
// in surrogate-rank order (descending predicted ops/cycle, ties to the
// lower index) and never exceed the budget.
func TestFlashMeasuresInPredictedOrder(t *testing.T) {
	space := gridSpace([]core.Pipeline{core.Baseline}, []int{8, 16, 24, 32, 48, 64})
	// Surrogate ranks by N descending: 64, 48, 32, ...
	eval := &stubEval{
		truth: func(e core.Experiment) uint64 { return 1 },
		pred:  func(e core.Experiment) uint64 { return uint64(e.N) },
	}
	s := tune.NewSession(space, eval, 3, 1)
	strat, err := tune.StrategyByName("flash")
	if err != nil {
		t.Fatal(err)
	}
	if err := strat.Search(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	want := []int{5, 4, 3} // indices of n=64, 48, 32
	if !reflect.DeepEqual(s.Order(), want) {
		t.Errorf("flash order = %v, want %v", s.Order(), want)
	}
	if eval.screens != 1 {
		t.Errorf("flash screened %d times, want 1", eval.screens)
	}
}

// TestHalvingRuntimeCapEliminates: a knob slower than capFactor × the
// rung's fastest run must be eliminated at the first rung and never
// measured again.
func TestHalvingRuntimeCapEliminates(t *testing.T) {
	sizes := []int{8, 16, 32}
	space := gridSpace([]core.Pipeline{core.Baseline, core.AllOptimizations}, sizes)
	eval := &stubEval{
		truth: func(e core.Experiment) uint64 { return uint64(e.N) },
		cycles: func(e core.Experiment) uint64 {
			if e.Pipeline == core.Baseline {
				return 100000 // 100× the optimized runtime: far over the cap
			}
			return 1000
		},
	}
	s := tune.NewSession(space, eval, 0, 1)
	strat, err := tune.StrategyByName("halving")
	if err != nil {
		t.Fatal(err)
	}
	if err := strat.Search(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	// The slow baseline knob is measured once (rung n=8) and then capped;
	// its larger sizes must stay unmeasured.
	for i, e := range space {
		_, measured := s.Result(i)
		slow := e.Pipeline == core.Baseline
		if slow && e.N > 8 && measured {
			t.Errorf("capped knob still measured at %s", e)
		}
		if !slow && !measured {
			t.Errorf("surviving knob never measured at %s", e)
		}
	}
}

// TestSpaceFromRegistryHoldout: the holdout split must be seeded, keep
// the endpoint sizes searchable, and partition the full grid exactly.
func TestSpaceFromRegistryHoldout(t *testing.T) {
	info := serve.RegistryInfo{
		Targets:   []string{"opengemm"},
		Workloads: []string{"matmul"},
		Pipelines: []string{"base", "all"},
		Sizes: map[string]map[string][]int{
			"matmul": {"opengemm": {8, 16, 24, 32, 48, 64, 96, 128}},
		},
	}
	sp, err := tune.SpaceFromRegistry(info, tune.Filters{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if total := len(sp.Cells) + len(sp.Holdout); total != 16 {
		t.Fatalf("space has %d cells, want 16", total)
	}
	if len(sp.HoldoutSizes) != 2 { // 8 distinct sizes / 4
		t.Fatalf("HoldoutSizes = %v, want 2 sizes", sp.HoldoutSizes)
	}
	held := make(map[int]bool)
	for _, n := range sp.HoldoutSizes {
		if n == 8 || n == 128 {
			t.Errorf("endpoint size %d held out", n)
		}
		held[n] = true
	}
	for _, e := range sp.Cells {
		if held[e.N] {
			t.Errorf("held-out size %d leaked into the searchable cells (%s)", e.N, e)
		}
	}
	for _, e := range sp.Holdout {
		if !held[e.N] {
			t.Errorf("holdout cell %s has a searchable size", e)
		}
	}

	sp2, err := tune.SpaceFromRegistry(info, tune.Filters{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp, sp2) {
		t.Error("same seed built different spaces")
	}
}

// TestCampaignDeterministicReport: with a surrogate that matches the
// truth ordering, flash must reach the exhaustive best in fewer sims than
// random at equal budget, and the rendered report must be byte-identical
// across reruns.
func TestCampaignDeterministicReport(t *testing.T) {
	space := tune.Space{
		Cells: gridSpace([]core.Pipeline{core.Baseline, core.AllOptimizations}, []int{8, 16, 24, 32, 48, 64}),
	}
	truth := func(e core.Experiment) uint64 {
		ops := uint64(e.N)
		if e.Pipeline == core.AllOptimizations {
			ops *= 3
		}
		return ops
	}
	run := func() (*tune.Report, *stubEval) {
		eval := &stubEval{truth: truth}
		rep, err := tune.Run(context.Background(), tune.Config{
			Space:      space,
			Eval:       eval,
			Strategies: []string{"random", "flash"},
			Budget:     4,
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, eval
	}
	rep1, _ := run()
	rep2, _ := run()
	if rep1.String() != rep2.String() {
		t.Errorf("same-seed reports differ:\n%s\nvs\n%s", rep1, rep2)
	}

	ex := rep1.Outcomes[0]
	if ex.Strategy != "exhaustive" || ex.Sims != len(space.Cells) || !ex.FoundBest {
		t.Fatalf("exhaustive reference wrong: %+v", ex)
	}
	if ex.BestCell.N != 64 || ex.BestCell.Pipeline != core.AllOptimizations {
		t.Errorf("exhaustive best = %s, want all/64", ex.BestCell)
	}
	var fl, rd *tune.Outcome
	for i := range rep1.Outcomes {
		switch rep1.Outcomes[i].Strategy {
		case "flash":
			fl = &rep1.Outcomes[i]
		case "random":
			rd = &rep1.Outcomes[i]
		}
	}
	if fl == nil || rd == nil {
		t.Fatal("missing flash/random outcomes")
	}
	if fl.SimsToBest != 1 {
		t.Errorf("flash sims-to-best = %d, want 1 (perfect surrogate)", fl.SimsToBest)
	}
	if rd.FoundBest && rd.SimsToBest <= fl.SimsToBest {
		t.Errorf("random (%d) beat flash (%d) on sims-to-best", rd.SimsToBest, fl.SimsToBest)
	}
	if !strings.Contains(rep1.String(), "strictly fewer sims than random: yes") {
		t.Errorf("report lacks the acceptance verdict:\n%s", rep1)
	}
}

// TestCampaignValidation: winners must be validated on the held-out
// cells, memoized campaign-wide, without counting against any budget.
func TestCampaignValidation(t *testing.T) {
	all := gridSpace([]core.Pipeline{core.Baseline, core.AllOptimizations}, []int{8, 16, 24, 32})
	space := tune.Space{HoldoutSizes: []int{16}}
	for _, e := range all {
		if e.N == 16 {
			space.Holdout = append(space.Holdout, e)
		} else {
			space.Cells = append(space.Cells, e)
		}
	}
	eval := &stubEval{truth: func(e core.Experiment) uint64 { return uint64(e.N) }}
	rep, err := tune.Run(context.Background(), tune.Config{
		Space:      space,
		Eval:       eval,
		Strategies: []string{"random"},
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outcomes {
		if o.ValidationCells != 1 {
			t.Errorf("%s validated %d cells, want 1 (its knob's held-out size)", o.Strategy, o.ValidationCells)
		}
		if o.ValidationGeomean <= 0 {
			t.Errorf("%s validation geomean = %v", o.Strategy, o.ValidationGeomean)
		}
	}
	// Exhaustive + random both fully cover the 6 searchable cells
	// (memoized per session, so 12 measures), plus exactly one validation
	// measure per distinct winner knob.
	winners := make(map[core.Pipeline]bool)
	for _, o := range rep.Outcomes {
		winners[o.BestCell.Pipeline] = true
	}
	want := 2*len(space.Cells) + len(winners)
	if eval.measures != want {
		t.Errorf("eval measured %d times, want %d", eval.measures, want)
	}
}
