package core_test

// Tests of the runner's persistence layer: the pluggable Store backend,
// the LRU bound on the in-memory cell map, hit/miss/evict accounting, and
// resuming a partial sweep from the store.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"configwall/internal/core"
	"configwall/internal/sim"
	"configwall/internal/store"
)

func diskRunner(t *testing.T, dir string, maxCells int) *core.Runner {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewRunnerWith(core.RunnerOptions{Store: st, MaxCells: maxCells})
}

// renderAllFigures regenerates the three measured figures on one runner
// and concatenates their rendered output.
func renderAllFigures(t *testing.T, r *core.Runner) string {
	t.Helper()
	sizes := []int{16, 32}
	rows10, err := core.Figure10With(context.Background(), r, sizes)
	if err != nil {
		t.Fatal(err)
	}
	rows11, err := core.Figure11With(context.Background(), r, sizes)
	if err != nil {
		t.Fatal(err)
	}
	d12, err := core.Figure12With(context.Background(), r, sizes)
	if err != nil {
		t.Fatal(err)
	}
	return core.RenderFigure10(rows10) + core.RenderFigure11(rows11) + core.RenderFigure12(d12)
}

// TestStoreBackedFigureSweepZeroRecompute is the PR's acceptance criterion:
// a repeated figure sweep against the same cache directory compiles and
// simulates nothing on the second run — every cell is a store hit — and
// the rendered figures are byte-identical to an uncached run.
func TestStoreBackedFigureSweepZeroRecompute(t *testing.T) {
	dir := t.TempDir()

	uncached := renderAllFigures(t, core.NewRunner(0))

	first := diskRunner(t, dir, 0)
	out1 := renderAllFigures(t, first)
	s1 := first.Snapshot()
	if s1.Runs == 0 || s1.StoreHits != 0 {
		t.Fatalf("first cached run: %+v, want fresh runs and no store hits", s1)
	}

	// A brand-new runner (fresh process, same directory): zero recomputes.
	second := diskRunner(t, dir, 0)
	out2 := renderAllFigures(t, second)
	s2 := second.Snapshot()
	if s2.Runs != 0 {
		t.Errorf("second cached run recomputed %d cells, want 0 (stats: %+v)", s2.Runs, s2)
	}
	if s2.StoreHits != s1.Runs {
		t.Errorf("second run store hits = %d, want %d (every cell the first run computed)", s2.StoreHits, s1.Runs)
	}
	if s2.StoreMisses != 0 || s2.StoreErrors != 0 {
		t.Errorf("second run had store misses/errors: %+v", s2)
	}

	if out1 != uncached {
		t.Error("store-backed rendering differs from uncached rendering")
	}
	if out2 != uncached {
		t.Error("store-served rendering differs from uncached rendering")
	}
}

// TestRunnerLRUEviction bounds the in-memory map and checks eviction
// accounting plus the store fallback for evicted cells.
func TestRunnerLRUEviction(t *testing.T) {
	dir := t.TempDir()
	r := diskRunner(t, dir, 2)
	opts := core.RunOptions{}
	exps := []core.Experiment{
		{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8},
		{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 16},
		{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 24},
	}
	for _, e := range exps {
		if _, err := r.Run(context.Background(), e, opts); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.CacheSize(); got != 2 {
		t.Errorf("CacheSize = %d, want 2 (LRU bound)", got)
	}
	s := r.Snapshot()
	if s.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", s.Evictions)
	}
	if s.Runs != 3 {
		t.Errorf("Runs = %d, want 3", s.Runs)
	}
	// exps[0] was evicted; re-requesting it must hit the store, not rerun.
	if _, err := r.Run(context.Background(), exps[0], opts); err != nil {
		t.Fatal(err)
	}
	s = r.Snapshot()
	if s.Runs != 3 {
		t.Errorf("evicted cell recomputed: Runs = %d, want 3", s.Runs)
	}
	if s.StoreHits != 1 {
		t.Errorf("StoreHits = %d, want 1 (evicted cell reloaded)", s.StoreHits)
	}
	if got := r.CacheSize(); got != 2 {
		t.Errorf("CacheSize = %d, want 2 after reload", got)
	}
}

// TestRunnerLRUTouchOnHit: re-accessing an old cell must protect it from
// the next eviction (LRU, not FIFO).
func TestRunnerLRUTouchOnHit(t *testing.T) {
	r := core.NewRunnerWith(core.RunnerOptions{MaxCells: 2})
	opts := core.RunOptions{}
	a := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8}
	b := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 16}
	c := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 24}
	for _, e := range []core.Experiment{a, b, a, c} { // touch a before c evicts
		if _, err := r.Run(context.Background(), e, opts); err != nil {
			t.Fatal(err)
		}
	}
	s := r.Snapshot()
	// b (least recently used) was evicted; re-running a must not recompute.
	if _, err := r.Run(context.Background(), a, opts); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().Runs; got != s.Runs {
		t.Errorf("a was evicted despite recent touch: Runs went %d -> %d", s.Runs, got)
	}
	// b recomputes (no store to fall back on).
	if _, err := r.Run(context.Background(), b, opts); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().Runs; got != s.Runs+1 {
		t.Errorf("expected exactly one recompute for evicted b: Runs went %d -> %d", s.Runs, got)
	}
}

// TestRunnerStatsAccounting checks the hit/miss identities on a sweep with
// duplicates.
func TestRunnerStatsAccounting(t *testing.T) {
	r := core.NewRunner(4)
	opts := core.RunOptions{}
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8}
	if _, err := r.RunAll(context.Background(), []core.Experiment{e, e, e, e}, opts); err != nil {
		t.Fatal(err)
	}
	s := r.Snapshot()
	if s.MemHits+s.MemMisses != 4 {
		t.Errorf("requests = %d, want 4 (stats: %+v)", s.MemHits+s.MemMisses, s)
	}
	if s.MemMisses != 1 || s.Runs != 1 {
		t.Errorf("distinct cell must miss and run exactly once: %+v", s)
	}
	if s.StoreHits != 0 && s.StoreMisses != 0 {
		t.Errorf("storeless runner reported store traffic: %+v", s)
	}
}

// TestShardedSweepThenResume drives a grid split by hand across runners
// that share one store: after a *partial* run (the first half only), a
// resumed run of the whole grid computes exactly the other half's cells,
// and a final pass serves the whole grid without computing.
func TestShardedSweepThenResume(t *testing.T) {
	opts := core.RunOptions{}
	grid := core.Figure12Experiments([]int{8, 16})
	dir := t.TempDir()
	shard0, shard1 := grid[:len(grid)/2], grid[len(grid)/2:]

	// "Process" 0 runs its shard and crashes before shard 1 ever runs.
	if _, err := diskRunner(t, dir, 0).RunAll(context.Background(), shard0, opts); err != nil {
		t.Fatal(err)
	}

	// Resume: a fresh runner over the whole grid loads shard 0 from the
	// store and computes exactly shard 1.
	resumed := diskRunner(t, dir, 0)
	if _, err := resumed.RunAll(context.Background(), grid, opts); err != nil {
		t.Fatal(err)
	}
	if s := resumed.Snapshot(); int(s.Runs) != len(shard1) || int(s.StoreHits) != len(shard0) {
		t.Errorf("resume: %+v, want %d runs (only the missing shard) and %d store hits", s, len(shard1), len(shard0))
	}

	// Final render pass: everything stored, nothing computed.
	final := diskRunner(t, dir, 0)
	if _, err := final.RunAll(context.Background(), grid, opts); err != nil {
		t.Fatal(err)
	}
	if s := final.Snapshot(); s.Runs != 0 || int(s.StoreHits) != len(grid) {
		t.Errorf("final pass: %+v, want 0 runs and %d store hits", s, len(grid))
	}
}

// flakyStore fails every operation: the runner must degrade to computing
// and counting errors, never abort the sweep.
type flakyStore struct {
	mu    sync.Mutex
	loads int
	saves int
}

func (f *flakyStore) Load(core.Experiment, core.RunOptions) (core.Result, bool, error) {
	f.mu.Lock()
	f.loads++
	f.mu.Unlock()
	return core.Result{}, false, errors.New("flaky load")
}

func (f *flakyStore) Save(core.Experiment, core.RunOptions, core.Result) error {
	f.mu.Lock()
	f.saves++
	f.mu.Unlock()
	return errors.New("flaky save")
}

func TestRunnerToleratesStoreFailures(t *testing.T) {
	fs := &flakyStore{}
	r := core.NewRunnerWith(core.RunnerOptions{Store: fs})
	opts := core.RunOptions{}
	exps := core.Figure11Experiments([]int{8})
	results, err := r.RunAll(context.Background(), exps, opts)
	if err != nil {
		t.Fatalf("sweep must survive a failing store: %v", err)
	}
	for i, res := range results {
		if res.Cycles == 0 {
			t.Errorf("result %d empty despite store failure fallback", i)
		}
	}
	s := r.Snapshot()
	if int(s.Runs) != len(exps) {
		t.Errorf("Runs = %d, want %d", s.Runs, len(exps))
	}
	if int(s.StoreErrors) != fs.loads+fs.saves {
		t.Errorf("StoreErrors = %d, want %d (loads %d + saves %d)", s.StoreErrors, fs.loads+fs.saves, fs.loads, fs.saves)
	}
}

// TestStoreBackedDeterminismUnderConcurrency: a store-backed parallel
// sweep must stay byte-identical to the serial storeless run, with the
// race detector watching the store's concurrent Save/Load traffic.
func TestStoreBackedDeterminismUnderConcurrency(t *testing.T) {
	opts := core.RunOptions{}
	exps := fullSweep()
	serial, err := core.NewRunner(1).RunAll(context.Background(), exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stored, err := core.NewRunnerWith(core.RunnerOptions{Workers: 8, Store: st}).RunAll(context.Background(), exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], stored[i]) {
			t.Errorf("experiment %s: serial and store-backed results differ", exps[i])
		}
	}
	// And a second store-backed pass (all loads) matches too.
	reloaded, err := core.NewRunnerWith(core.RunnerOptions{Workers: 8, Store: st}).RunAll(context.Background(), exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], reloaded[i]) {
			t.Errorf("experiment %s: reloaded result differs:\nwant %+v\ngot  %+v", exps[i], serial[i], reloaded[i])
		}
	}
}

// TestRunnerNeverRecordsATimeline: a timeline is not part of a cell's name,
// so no Result a Runner hands out carries one — not a cell Run or RunAll
// computed, not a memory hit, not a cell a fresh runner loads from the
// store, and not the stored entry itself — under either engine.
func TestRunnerNeverRecordsATimeline(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cells := core.Sweep([]string{"gemmini", "opengemm"}, []string{core.WorkloadMatmul}, core.Pipelines, []int{16})
	for _, eng := range sim.Engines {
		opts := core.RunOptions{Engine: eng}
		var results []core.Result
		res, err := core.NewRunner(1).Run(ctx, cells[0], opts)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		first := diskRunner(t, dir, 0)
		computed, err := first.RunAll(ctx, cells, opts)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, computed...)
		if res, err = first.Run(ctx, cells[1], opts); err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		second := diskRunner(t, dir, 0)
		loaded, err := second.RunAll(ctx, cells, opts)
		if err != nil {
			t.Fatal(err)
		}
		if s := second.Snapshot(); s.Runs != 0 || s.StoreHits != uint64(len(cells)) {
			t.Fatalf("%s: the second runner did not load every cell from the store: %+v", eng, s)
		}
		results = append(results, loaded...)
		for _, e := range cells {
			res, ok, err := st.Load(e, opts)
			if err != nil || !ok {
				t.Fatalf("%s %s: Load ok=%v err=%v", eng, e, ok, err)
			}
			results = append(results, res)
		}
		for i, res := range results {
			if res.Trace != nil {
				t.Errorf("%s: Result %d (%s/%s/%d) carries a %d-segment timeline", eng, i, res.Target, res.Pipeline, res.N, len(res.Trace))
			}
		}
	}
}

// Ensure the fingerprint is stable across cells that stringify alike: the
// key must separate fields, not just concatenate them.
func TestFingerprintKeyDistinct(t *testing.T) {
	a := core.FingerprintKey(core.Experiment{Target: "t", Workload: "w", N: 1}, core.RunOptions{})
	b := core.FingerprintKey(core.Experiment{Target: "t", Workload: "w", N: 11}, core.RunOptions{})
	if a == b {
		t.Error("distinct experiments share a fingerprint")
	}
	// A timeline is not part of a cell's name, so the key has no trace=.
	if want := "target=t;workload=w;pipeline=0;n=1;engine=0"; a != want {
		t.Errorf("fingerprint = %q, want %q", a, want)
	}
	// Engines are kept separate even though their results are identical —
	// a cross-engine comparison must never be served a shared cell.
	e := core.FingerprintKey(core.Experiment{Target: "t", Workload: "w", N: 1}, core.RunOptions{Engine: sim.EngineRef})
	if a == e {
		t.Error("distinct engines share a fingerprint")
	}
	if f := core.FingerprintKey(core.Experiment{Target: "t", Workload: "w", N: 1}, core.RunOptions{Engine: sim.EngineFast}); a != f {
		t.Error("zero-value options and the named default engine are different cells")
	}
	// Pipeline.String() collapses unnamed values to "base"; the numeric key
	// must still separate them from Baseline.
	d := core.FingerprintKey(core.Experiment{Target: "t", Workload: "w", Pipeline: 7, N: 1}, core.RunOptions{})
	if a == d {
		t.Error("out-of-range pipeline aliases Baseline's fingerprint")
	}
}
