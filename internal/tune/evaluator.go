package tune

// Evaluators are how strategies touch the measurement stack. The HTTP
// evaluator is the production path: every full-fidelity measurement goes
// through serve.Client's retry layer (429 Retry-After, transient faults
// and truncated streams handled there), and every surrogate screen is a
// fidelity=screen sweep, so N concurrent tuners against one daemon
// coalesce onto one simulation per distinct cell.

import (
	"context"
	"fmt"

	"configwall/internal/core"
	"configwall/internal/serve"
)

// Evaluator measures experiment cells for a search strategy.
type Evaluator interface {
	// Measure runs one cell at full fidelity (ground truth).
	Measure(ctx context.Context, e core.Experiment) (core.Result, error)
	// Screen returns analytic predictions for exps, in input order,
	// without simulating. It fails when no calibrated model is attached.
	Screen(ctx context.Context, exps []core.Experiment) ([]core.Result, error)
}

// ClientEvaluator measures through a cwserve daemon via the self-healing
// client layer.
type ClientEvaluator struct {
	// Client talks to the daemon. Required.
	Client *serve.Client
	// Retry is the retry/backoff policy for every request.
	Retry serve.RetryPolicy
	// Opts carries engine/trace/verify options; Fidelity is overridden
	// per call (full for Measure, screen for Screen).
	Opts core.RunOptions
}

// Measure runs one cell through /v1/run with retries.
func (ce *ClientEvaluator) Measure(ctx context.Context, e core.Experiment) (core.Result, error) {
	opts := ce.Opts
	opts.Fidelity = core.FidelityFull
	return ce.Client.RunWithRetry(ctx, e, opts, ce.Retry)
}

// Screen predicts every cell analytically. Cells are grouped by
// (target, workload); a group that forms a full pipelines × sizes grid is
// answered by one fidelity=screen /v1/sweep (with resume-on-truncation),
// and ragged groups fall back to per-cell screen-fidelity /v1/run calls.
func (ce *ClientEvaluator) Screen(ctx context.Context, exps []core.Experiment) ([]core.Result, error) {
	results := make([]core.Result, len(exps))
	filled := make([]bool, len(exps))

	type groupKey struct{ target, workload string }
	var keys []groupKey
	groups := make(map[groupKey][]int)
	for i, e := range exps {
		k := groupKey{e.Target, e.Workload}
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], i)
	}

	for _, k := range keys {
		idxs := groups[k]
		pipes, sizes, full := gridShape(exps, idxs)
		if !full {
			for _, i := range idxs {
				opts := ce.Opts
				opts.Fidelity = core.FidelityScreen
				res, err := ce.Client.RunWithRetry(ctx, exps[i], opts, ce.Retry)
				if err != nil {
					return nil, err
				}
				results[i] = res
				filled[i] = true
			}
			continue
		}

		byCell := make(map[core.Experiment]int, len(idxs))
		for _, i := range idxs {
			byCell[exps[i]] = i
		}
		rq := serve.SweepRequest{
			Targets:    []string{k.target},
			Workloads:  []string{k.workload},
			Pipelines:  pipes,
			Sizes:      sizes,
			Engine:     ce.Opts.Engine.String(),
			SkipVerify: ce.Opts.SkipVerify,
			Fidelity:   "screen",
		}
		_, err := ce.Client.SweepWithResume(ctx, rq, ce.Retry, func(ev serve.SweepEvent) error {
			if ev.Error != "" {
				return fmt.Errorf("screening %s: %s", ev.Experiment, ev.Error)
			}
			if ev.Experiment == nil || ev.Result == nil {
				return fmt.Errorf("screen sweep event without experiment/result")
			}
			if i, ok := byCell[*ev.Experiment]; ok {
				results[i] = *ev.Result
				filled[i] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	for i, ok := range filled {
		if !ok {
			return nil, fmt.Errorf("screen sweep never answered cell %s", exps[i])
		}
	}
	return results, nil
}

// gridShape extracts the distinct pipelines and sizes of a cell group (in
// first-seen order) and reports whether the group is exactly their full
// cross product — the shape one sweep request can express.
func gridShape(exps []core.Experiment, idxs []int) (pipes []string, sizes []int, full bool) {
	seenPipe := make(map[string]bool)
	seenSize := make(map[int]bool)
	seenCell := make(map[core.Experiment]bool)
	for _, i := range idxs {
		e := exps[i]
		if p := e.Pipeline.String(); !seenPipe[p] {
			seenPipe[p] = true
			pipes = append(pipes, p)
		}
		if !seenSize[e.N] {
			seenSize[e.N] = true
			sizes = append(sizes, e.N)
		}
		seenCell[e] = true
	}
	return pipes, sizes, len(seenCell) == len(pipes)*len(sizes)
}
