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
	// Opts names the engine/trace/verify variant of every measured cell.
	Opts core.RunOptions
}

// Measure runs one cell through /v1/run with retries.
func (ce *ClientEvaluator) Measure(ctx context.Context, e core.Experiment) (core.Result, error) {
	return ce.Client.RunWithRetry(ctx, e, ce.Opts, ce.Retry)
}

// Screen predicts every cell analytically over one wire path:
// fidelity=screen /v1/sweep requests (with resume-on-truncation), the only
// request the daemon answers without simulating — /v1/run always simulates.
// Cells are grouped by (target, workload); a group that forms a full
// pipelines × sizes grid is one request, and a ragged group is asked cell
// by cell as 1 × 1 grids (a single cell is always a grid).
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

	// sweep screens the pipes × sizes grid of group k, which covers exactly
	// the cells idxs.
	sweep := func(k groupKey, idxs []int, pipes []string, sizes []int) error {
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
		return err
	}

	for _, k := range keys {
		idxs := groups[k]
		if pipes, sizes, full := gridShape(exps, idxs); full {
			if err := sweep(k, idxs, pipes, sizes); err != nil {
				return nil, err
			}
			continue
		}
		for _, i := range idxs {
			if err := sweep(k, []int{i}, []string{exps[i].Pipeline.String()}, []int{exps[i].N}); err != nil {
				return nil, err
			}
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
