// Package tune is the configuration-search subsystem: pluggable search
// strategies over the (target × workload × pipeline × size) experiment
// space, closing the loop the serving stack was built for (DESIGN.md §12).
//
// The pieces:
//
//   - Space (space.go) — the search space, discovered from a daemon's
//     /v1/registry response rather than hardcoded, with a seeded held-out
//     validation split in the Eggensperger et al. style.
//   - Evaluator (evaluator.go) — how a strategy measures a cell: over HTTP
//     through the serve.Client retry/resume layer, or in-process against a
//     core.Runner in tests.
//   - Session (this file) — the budget ledger between a strategy and its
//     evaluator: memoizes measurements, counts distinct simulations
//     against the budget, and tracks the incumbent best cell.
//   - Strategy (strategy.go, random.go, halving.go, flash.go) — the
//     pluggable searchers.
//   - Campaign (campaign.go) — runs strategies under equal budgets against
//     an exhaustive-sweep ground truth and renders the deterministic
//     comparison report.
//
// Determinism discipline: everything a strategy does is a pure function of
// (space, seed, budget) — randomness comes only from the session's seeded
// generator, measurement results are deterministic simulations, and
// reports never include wall-clock times (those go to stderr) — so a
// campaign report is byte-identical across reruns with the same seed.
package tune

import (
	"context"
	"errors"
	"math/rand"

	"configwall/internal/core"
)

// ErrBudgetExhausted is returned by Session.Measure once the strategy has
// spent its full simulation budget on distinct cells. Strategies treat it
// as normal termination.
var ErrBudgetExhausted = errors.New("tune: simulation budget exhausted")

// Session mediates one strategy's search over one space: it memoizes
// measurements (re-measuring a cell is free, mirroring the daemon's cache
// semantics), charges each distinct measured cell against the budget, and
// tracks the best cell observed so far by measured ops/cycle.
type Session struct {
	space  []core.Experiment
	eval   Evaluator
	budget int
	rng    *rand.Rand

	measured map[int]core.Result
	order    []int // distinct measured cell indices, in measurement order

	bestIdx int
	hasBest bool
}

// NewSession builds a session over space with the given per-strategy
// budget of distinct measured cells; budget <= 0 means the whole space.
// The seed drives every random choice the strategy makes.
func NewSession(space []core.Experiment, eval Evaluator, budget int, seed int64) *Session {
	if budget <= 0 || budget > len(space) {
		budget = len(space)
	}
	return &Session{
		space:    space,
		eval:     eval,
		budget:   budget,
		rng:      rand.New(rand.NewSource(seed)),
		measured: make(map[int]core.Result),
	}
}

// Space returns the search cells. Strategies address cells by index into
// this slice and must not mutate it.
func (s *Session) Space() []core.Experiment { return s.space }

// Rand returns the session's seeded generator — the only randomness
// source a strategy may use, so equal seeds replay equal searches.
func (s *Session) Rand() *rand.Rand { return s.rng }

// Budget returns the distinct-cell simulation budget.
func (s *Session) Budget() int { return s.budget }

// Sims returns how many distinct cells have been measured.
func (s *Session) Sims() int { return len(s.order) }

// Order returns the distinct measured cell indices in measurement order —
// the sequence sims-to-best-config accounting walks.
func (s *Session) Order() []int { return s.order }

// Result returns the memoized measurement for cell i, if it was measured.
func (s *Session) Result(i int) (core.Result, bool) {
	res, ok := s.measured[i]
	return res, ok
}

// Best returns the incumbent best measured cell (index and result). The
// incumbent only changes on strictly better ops/cycle, so ties go to the
// earlier measurement.
func (s *Session) Best() (int, core.Result, bool) {
	if !s.hasBest {
		return 0, core.Result{}, false
	}
	return s.bestIdx, s.measured[s.bestIdx], true
}

// Measure measures cell i at full fidelity. A cell already measured in
// this session is served from the memo for free; a fresh cell is charged
// against the budget, and once the budget is spent Measure returns
// ErrBudgetExhausted without evaluating.
func (s *Session) Measure(ctx context.Context, i int) (core.Result, error) {
	if res, ok := s.measured[i]; ok {
		return res, nil
	}
	if len(s.order) >= s.budget {
		return core.Result{}, ErrBudgetExhausted
	}
	res, err := s.eval.Measure(ctx, s.space[i])
	if err != nil {
		return core.Result{}, err
	}
	s.measured[i] = res
	s.order = append(s.order, i)
	if !s.hasBest || res.OpsPerCycle() > s.measured[s.bestIdx].OpsPerCycle() {
		s.bestIdx = i
		s.hasBest = true
	}
	return res, nil
}

// Screen returns surrogate predictions for the whole space, in space
// order, at zero simulation cost. It requires an evaluator backed by a
// calibrated analytic model (FLASH's surrogate).
func (s *Session) Screen(ctx context.Context) ([]core.Result, error) {
	return s.eval.Screen(ctx, s.space)
}
