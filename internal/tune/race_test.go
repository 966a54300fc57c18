package tune_test

// Coalescing under concurrency: N tuner workers hammering one daemon
// with identical campaigns must cost exactly one simulation per distinct
// cell — the singleflight + memoization stack absorbs the overlap. Run
// with -race this also exercises the whole client/server path for data
// races.

import (
	"context"
	"sync"
	"testing"

	"configwall/internal/serve"
	"configwall/internal/tune"
)

func TestConcurrentCampaignsCoalesce(t *testing.T) {
	runner, url, c := newDaemon(t, nil)
	space := discoverSpace(t, c, 24, 1)
	if len(space.Cells) == 0 {
		t.Fatal("empty space")
	}
	// Nothing held out, nothing validated: the campaigns measure the
	// searchable cells and no others, which the run count below relies on.
	space.Holdout = nil

	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker is its own cwtune: own client, own retry
			// stream, identical campaign over identical cells.
			client := serve.NewClient(url)
			_, err := tune.Run(context.Background(), tune.Config{
				Space:      space,
				Eval:       &tune.ClientEvaluator{Client: client, Retry: serve.RetryPolicy{Seed: int64(w)}},
				Strategies: []string{"random", "halving"},
				Seed:       1,
			})
			errs[w] = err
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// Zero duplicate simulations: every distinct cell ran exactly once no
	// matter how many workers requested it. (The exhaustive reference in
	// each campaign covers the whole searchable space, so the distinct
	// cell count is exactly the space size.)
	if st := runner.Snapshot(); st.Runs != uint64(len(space.Cells)) {
		t.Errorf("daemon simulated %d cells for %d workers over %d distinct cells — duplicates slipped through coalescing",
			st.Runs, workers, len(space.Cells))
	}
}
