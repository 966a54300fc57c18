package tune

// A campaign is the methodology wrapper around the strategies: run an
// exhaustive sweep of the searchable space as ground truth, run every
// requested strategy under an equal simulation budget, count each one's
// sims-to-best-config against the exhaustive optimum, and validate the
// winners on the held-out cells the search never saw. The rendered report
// is a pure function of (space, seed, budget, measured results): wall
// clock is kept out of it (WallSummary carries it to stderr), so a rerun
// with equal inputs is byte-identical.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"time"

	"configwall/internal/core"
)

// Config configures one campaign.
type Config struct {
	// Space is the search space (SpaceFromRegistry, or hand-built).
	Space Space
	// Eval measures cells for every strategy.
	Eval Evaluator
	// Strategies names the searchers to compare; empty selects
	// random, halving and flash.
	Strategies []string
	// Budget is the per-strategy distinct-cell simulation budget;
	// <= 0 means the full searchable space.
	Budget int
	// Seed drives every random choice a strategy makes; each strategy
	// derives its own stream from it, so reordering Strategies does not
	// change any individual search.
	Seed int64
}

// Outcome is one strategy's campaign result.
type Outcome struct {
	Strategy string
	// Sims is how many distinct cells the strategy measured.
	Sims int
	// SimsToBest is the 1-based position in the measurement sequence at
	// which the strategy first reached the exhaustive-best ops/cycle;
	// 0 if it never did.
	SimsToBest int
	// BestCell/Best are the strategy's incumbent winner.
	BestCell core.Experiment
	Best     core.Result
	// FoundBest reports whether the strategy reached the exhaustive
	// optimum within its budget.
	FoundBest bool
	// Wall is the strategy's wall-clock search time; reported only via
	// WallSummary (stderr), never in the deterministic report body.
	Wall time.Duration
	// ValidationCells/ValidationGeomean are the held-out check: the
	// winner's (target, workload, pipeline) knob measured at every
	// feasible held-out size, summarized as geomean ops/cycle.
	ValidationCells   int
	ValidationGeomean float64
}

// Report is a finished campaign.
type Report struct {
	Seed   int64
	Budget int
	Space  Space
	// BestPerf is the exhaustive optimum's ops/cycle.
	BestPerf float64
	// Outcomes holds the exhaustive reference first, then the requested
	// strategies in request order.
	Outcomes []Outcome
}

// Run executes the campaign: exhaustive ground truth first, then every
// requested strategy on a fresh session with an equal budget, then the
// held-out validation of each winner. Validation measurements are
// memoized campaign-wide and never count against any strategy's budget.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Space.Cells) == 0 {
		return nil, fmt.Errorf("tune: empty search space")
	}
	names := cfg.Strategies
	if len(names) == 0 {
		names = []string{"random", "halving", "flash"}
	}
	budget := cfg.Budget
	if budget <= 0 || budget > len(cfg.Space.Cells) {
		budget = len(cfg.Space.Cells)
	}
	rep := &Report{Seed: cfg.Seed, Budget: budget, Space: cfg.Space}

	// Ground truth: exhaustively measure the whole searchable space.
	exSess, exWall, err := runStrategy(ctx, "exhaustive", cfg, len(cfg.Space.Cells))
	if err != nil {
		return nil, err
	}
	_, bestRes, ok := exSess.Best()
	if !ok {
		return nil, fmt.Errorf("tune: exhaustive sweep measured nothing")
	}
	rep.BestPerf = bestRes.OpsPerCycle()
	rep.Outcomes = append(rep.Outcomes, outcomeOf("exhaustive", exSess, exWall, rep.BestPerf))

	for _, name := range names {
		sess, wall, err := runStrategy(ctx, name, cfg, budget)
		if err != nil {
			return nil, fmt.Errorf("strategy %s: %w", name, err)
		}
		rep.Outcomes = append(rep.Outcomes, outcomeOf(name, sess, wall, rep.BestPerf))
	}

	if len(cfg.Space.Holdout) > 0 {
		memo := make(map[core.Experiment]core.Result)
		for i := range rep.Outcomes {
			o := &rep.Outcomes[i]
			cells, geomean, err := validateWinner(ctx, cfg.Eval, cfg.Space.Holdout, o.BestCell, memo)
			if err != nil {
				return nil, fmt.Errorf("validating %s winner: %w", o.Strategy, err)
			}
			o.ValidationCells, o.ValidationGeomean = cells, geomean
		}
	}
	return rep, nil
}

// runStrategy runs one named strategy on a fresh session.
func runStrategy(ctx context.Context, name string, cfg Config, budget int) (*Session, time.Duration, error) {
	strat, err := StrategyByName(name)
	if err != nil {
		return nil, 0, err
	}
	sess := NewSession(cfg.Space.Cells, cfg.Eval, budget, strategySeed(cfg.Seed, name))
	start := time.Now()
	err = strat.Search(ctx, sess)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	return sess, wall, nil
}

// strategySeed derives a per-strategy seed stream from the campaign seed,
// so every strategy's randomness is independent of the request order.
func strategySeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// outcomeOf summarizes a finished session against the exhaustive optimum.
func outcomeOf(name string, sess *Session, wall time.Duration, bestPerf float64) Outcome {
	o := Outcome{Strategy: name, Sims: sess.Sims(), Wall: wall}
	if i, res, ok := sess.Best(); ok {
		o.BestCell = sess.Space()[i]
		o.Best = res
	}
	for pos, i := range sess.Order() {
		if res, ok := sess.Result(i); ok && res.OpsPerCycle() >= bestPerf {
			o.SimsToBest = pos + 1
			break
		}
	}
	o.FoundBest = o.SimsToBest > 0
	return o
}

// validateWinner measures the winner's knob at every feasible held-out
// size and returns the cell count and geomean ops/cycle.
func validateWinner(ctx context.Context, eval Evaluator, holdout []core.Experiment, winner core.Experiment, memo map[core.Experiment]core.Result) (int, float64, error) {
	var logSum float64
	cells := 0
	for _, h := range holdout {
		if h.Target != winner.Target || h.Workload != winner.Workload || h.Pipeline != winner.Pipeline {
			continue
		}
		res, ok := memo[h]
		if !ok {
			var err error
			res, err = eval.Measure(ctx, h)
			if err != nil {
				return 0, 0, err
			}
			memo[h] = res
		}
		logSum += math.Log(res.OpsPerCycle())
		cells++
	}
	if cells == 0 {
		return 0, 0, nil
	}
	return cells, math.Exp(logSum / float64(cells)), nil
}

// outcome returns the first outcome of the named strategy, or nil.
func (r *Report) outcome(name string) *Outcome {
	for i := range r.Outcomes {
		if r.Outcomes[i].Strategy == name {
			return &r.Outcomes[i]
		}
	}
	return nil
}

// String renders the deterministic campaign report: a pure function of
// seed, budget, space and measured results — no wall clock, no map
// iteration — so equal-seed reruns are byte-identical.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cwtune campaign: seed=%d budget=%d cells=%d holdout=%d\n",
		r.Seed, r.Budget, len(r.Space.Cells), len(r.Space.Holdout))
	if len(r.Space.HoldoutSizes) > 0 {
		fmt.Fprintf(&b, "held-out sizes: %s\n", joinInts(r.Space.HoldoutSizes))
	}
	if ex := r.outcome("exhaustive"); ex != nil {
		fmt.Fprintf(&b, "exhaustive best: %s ops/cycle=%.6f (%d sims)\n", ex.BestCell, r.BestPerf, ex.Sims)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-12s %5s %12s  %-28s %10s %5s\n",
		"strategy", "sims", "sims-to-best", "best-config", "ops/cycle", "found")
	for _, o := range r.Outcomes {
		stb := "-"
		if o.SimsToBest > 0 {
			stb = strconv.Itoa(o.SimsToBest)
		}
		found := "no"
		if o.FoundBest {
			found = "yes"
		}
		fmt.Fprintf(&b, "%-12s %5d %12s  %-28s %10.6f %5s\n",
			o.Strategy, o.Sims, stb, o.BestCell.String(), o.Best.OpsPerCycle(), found)
	}

	fl, rd := r.outcome("flash"), r.outcome("random")
	if fl != nil && rd != nil {
		verdict := "no"
		if fl.FoundBest && (!rd.FoundBest || fl.SimsToBest < rd.SimsToBest) {
			verdict = "yes"
		}
		fmt.Fprintf(&b, "\nacceptance: flash sims-to-best=%d, random sims-to-best=%d; flash reached the exhaustive best with strictly fewer sims than random: %s\n",
			fl.SimsToBest, rd.SimsToBest, verdict)
	}

	validated := false
	for _, o := range r.Outcomes {
		if o.ValidationCells > 0 {
			validated = true
			break
		}
	}
	if validated {
		b.WriteString("\nvalidation (held-out sizes, winner knob):\n")
		fmt.Fprintf(&b, "%-12s %5s %18s\n", "strategy", "cells", "geomean-ops/cycle")
		for _, o := range r.Outcomes {
			fmt.Fprintf(&b, "%-12s %5d %18.6f\n", o.Strategy, o.ValidationCells, o.ValidationGeomean)
		}
	}
	return b.String()
}

// WallSummary renders the per-strategy wall-clock times — the one
// non-deterministic campaign fact, kept out of String so the report body
// stays byte-identical across reruns (it belongs on stderr).
func (r *Report) WallSummary() string {
	parts := make([]string, len(r.Outcomes))
	for i, o := range r.Outcomes {
		parts[i] = fmt.Sprintf("%s=%s", o.Strategy, o.Wall.Round(time.Millisecond))
	}
	return "wall-clock: " + strings.Join(parts, " ")
}

// joinInts renders ints comma-separated.
func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}
