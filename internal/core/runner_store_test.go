package core_test

// Tests of the runner's persistence layer: the pluggable Store backend,
// the LRU bound on the in-memory cell map, hit/miss/evict accounting, and
// the shard/resume workflow for split figure grids.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"configwall/internal/core"
	"configwall/internal/serve"
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
func renderAllFigures(t *testing.T, r *core.Runner, opts core.RunOptions) string {
	t.Helper()
	sizes := []int{16, 32}
	rows10, err := core.Figure10With(context.Background(), r, sizes, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows11, err := core.Figure11With(context.Background(), r, sizes, opts)
	if err != nil {
		t.Fatal(err)
	}
	d12, err := core.Figure12With(context.Background(), r, sizes, opts)
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
	opts := core.RunOptions{SkipVerify: true}
	dir := t.TempDir()

	uncached := renderAllFigures(t, core.NewRunner(0), opts)

	first := diskRunner(t, dir, 0)
	out1 := renderAllFigures(t, first, opts)
	s1 := first.Snapshot()
	if s1.Runs == 0 || s1.StoreHits != 0 {
		t.Fatalf("first cached run: %+v, want fresh runs and no store hits", s1)
	}

	// A brand-new runner (fresh process, same directory): zero recomputes.
	second := diskRunner(t, dir, 0)
	out2 := renderAllFigures(t, second, opts)
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
	opts := core.RunOptions{SkipVerify: true}
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
	opts := core.RunOptions{SkipVerify: true}
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
	opts := core.RunOptions{SkipVerify: true}
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

// TestShardPartition: for every m, the m shards are disjoint and their
// union is exactly the sweep — the correctness condition for splitting a
// grid across processes.
func TestShardPartition(t *testing.T) {
	exps := fullSweep()
	for m := 1; m <= len(exps)+1; m++ {
		seen := map[core.Experiment]int{}
		total := 0
		for i := 0; i < m; i++ {
			part, err := core.Shard(exps, i, m)
			if err != nil {
				t.Fatalf("Shard(%d, %d): %v", i, m, err)
			}
			total += len(part)
			for _, e := range part {
				seen[e]++
			}
		}
		if total != len(exps) {
			t.Errorf("m=%d: shards cover %d cells, want %d", m, total, len(exps))
		}
		for e, n := range seen {
			if n != 1 {
				t.Errorf("m=%d: cell %s appears in %d shards", m, e, n)
			}
		}
	}
	if _, err := core.Shard(exps, 0, 0); err == nil {
		t.Error("Shard with m=0 must error")
	}
	if _, err := core.Shard(exps, 2, 2); err == nil {
		t.Error("Shard with i=m must error")
	}
	if _, err := core.Shard(exps, -1, 2); err == nil {
		t.Error("Shard with negative i must error")
	}
}

// TestShardedSweepThenResume drives the full split-grid workflow: two
// shard processes fill one store, a third process serves the whole grid
// without computing; and after a *partial* run (one shard only), a resumed
// run of the whole grid computes exactly the other shard's cells.
func TestShardedSweepThenResume(t *testing.T) {
	opts := core.RunOptions{SkipVerify: true}
	grid := core.Figure12Experiments([]int{8, 16})
	dir := t.TempDir()

	shard0, err := core.Shard(grid, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	shard1, err := core.Shard(grid, 1, 2)
	if err != nil {
		t.Fatal(err)
	}

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

// warmFromStore boots r the way cwserve does: a server over it,
// preloaded from the store behind it.
func warmFromStore(r *core.Runner) (int, error) {
	sv, err := serve.New(serve.Options{Runner: r})
	if err != nil {
		return 0, err
	}
	defer sv.Close()
	return sv.WarmFromStore(context.Background(), r.Store().(*store.DiskStore))
}

// TestWarmPreloads: warming at boot pulls stored cells into memory so later
// Run calls are pure memory hits even if the store then disappears.
func TestWarmPreloads(t *testing.T) {
	opts := core.RunOptions{SkipVerify: true}
	exps := core.Figure11Experiments([]int{8, 16})
	dir := t.TempDir()
	if _, err := diskRunner(t, dir, 0).RunAll(context.Background(), exps, opts); err != nil {
		t.Fatal(err)
	}

	r := diskRunner(t, dir, 0)
	if warmed, err := warmFromStore(r); err != nil || warmed != len(exps) {
		t.Errorf("WarmFromStore = %d (err %v), want %d", warmed, err, len(exps))
	}
	if got := r.CacheSize(); got != len(exps) {
		t.Errorf("CacheSize after warming = %d, want %d", got, len(exps))
	}
	// Warming again is a no-op.
	if warmed, err := warmFromStore(r); err != nil || warmed != 0 {
		t.Errorf("second WarmFromStore = %d (err %v), want 0", warmed, err)
	}
	before := r.Snapshot()
	if _, err := r.RunAll(context.Background(), exps, opts); err != nil {
		t.Fatal(err)
	}
	after := r.Snapshot()
	if after.Runs != 0 {
		t.Errorf("RunAll after warming computed %d cells, want 0", after.Runs)
	}
	if after.StoreHits != before.StoreHits {
		t.Errorf("RunAll after warming went back to the store: %+v -> %+v", before, after)
	}
}

// TestWarmedCellsAreNotRequests: cells put in memory at boot — by
// Server.WarmFromStore, or by the Preload-per-store-entry loop it runs —
// leave the request counters at zero and CacheStats' two stated invariants
// intact, before and after real traffic.
func TestWarmedCellsAreNotRequests(t *testing.T) {
	opts := core.RunOptions{SkipVerify: true}
	exps := core.Figure11Experiments([]int{8, 16})
	cold := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 24}
	invariants := func(t *testing.T, s core.CacheStats, requests uint64) {
		t.Helper()
		if got := s.MemHits + s.MemMisses; got != requests {
			t.Errorf("MemHits+MemMisses = %d, want %d requests (%+v)", got, requests, s)
		}
		if s.Runs != s.MemMisses-s.StoreHits {
			t.Errorf("Runs = %d, want MemMisses-StoreHits = %d (%+v)", s.Runs, s.MemMisses-s.StoreHits, s)
		}
	}
	warmers := map[string]func(*core.Runner) (int, error){
		"WarmFromStore": warmFromStore,
		"Preload": func(r *core.Runner) (int, error) {
			n := 0
			err := r.Store().(*store.DiskStore).Each(func(e store.Entry) error {
				if r.Preload(e.Experiment, e.Options, e.Result) {
					n++
				}
				return nil
			})
			return n, err
		},
	}
	for name, warm := range warmers {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := diskRunner(t, dir, 0).RunAll(context.Background(), exps, opts); err != nil {
				t.Fatal(err)
			}
			r := diskRunner(t, dir, 0)
			if n, err := warm(r); err != nil || n != len(exps) {
				t.Fatalf("warmed %d cells (err %v), want %d", n, err, len(exps))
			}
			if s := r.Snapshot(); s != (core.CacheStats{}) {
				t.Errorf("stats after warming = %+v, want all zero", s)
			}
			// Every warmed cell twice (hits), one cell nobody stored (a run).
			mix := append(append(append([]core.Experiment{}, exps...), exps...), cold)
			if _, err := r.RunAll(context.Background(), mix, opts); err != nil {
				t.Fatal(err)
			}
			s := r.Snapshot()
			invariants(t, s, uint64(len(mix)))
			if s.MemMisses != 1 || s.StoreHits != 0 || s.Runs != 1 {
				t.Errorf("after the mix: %+v, want 1 miss, 0 store hits, 1 run", s)
			}
		})
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
	opts := core.RunOptions{SkipVerify: true}
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
	opts := core.RunOptions{SkipVerify: true}
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

// Ensure the fingerprint is stable across cells that stringify alike: the
// key must separate fields, not just concatenate them.
func TestFingerprintKeyDistinct(t *testing.T) {
	a := core.FingerprintKey(core.Experiment{Target: "t", Workload: "w", N: 1}, core.RunOptions{})
	b := core.FingerprintKey(core.Experiment{Target: "t", Workload: "w", N: 11}, core.RunOptions{})
	if a == b {
		t.Error("distinct experiments share a fingerprint")
	}
	c := core.FingerprintKey(core.Experiment{Target: "t", Workload: "w", N: 1}, core.RunOptions{RecordTrace: true})
	if a == c {
		t.Error("distinct options share a fingerprint")
	}
	if want := "target=t;workload=w;pipeline=0;n=1;trace=false;skipverify=false;engine=0"; a != want {
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
