package core

// The concurrent experiment runner: the paper's evaluation is a sweep over
// (target, workload, pipeline, n) cells that are embarrassingly parallel —
// every cell compiles and simulates in its own deterministic sandbox. The
// runner executes sweeps on a bounded worker pool, memoizes per-cell
// results so repeated figure generation never recompiles an identical
// cell, and returns results in input order so concurrent output is
// byte-identical to a serial run.
//
// Two scaling controls sit on top of the memoization: an optional
// persistent Store (see store.go and internal/store) makes results survive
// the process, so re-running a figure grid — or resuming a crashed or
// sharded sweep — skips every cell that already ran; and an LRU bound on
// the in-memory cell map keeps long-lived sweep servers from growing
// without limit.

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Experiment keys one cell of the evaluation sweep by registry names.
type Experiment struct {
	// Target is a registered target name (e.g. "gemmini").
	Target string
	// Workload is a registered workload name (e.g. "matmul").
	Workload string
	// Pipeline selects the optimization variant.
	Pipeline Pipeline
	// N is the workload sweep size.
	N int
}

func (e Experiment) String() string {
	return fmt.Sprintf("%s/%s/%s/%d", e.Target, e.Workload, e.Pipeline, e.N)
}

// RunExperiment resolves the experiment's target and workload through the
// registry and executes it once, uncached. Sweeps should prefer a Runner.
func RunExperiment(e Experiment, opts RunOptions) (Result, error) {
	t, err := LookupTarget(e.Target)
	if err != nil {
		return Result{}, err
	}
	w, err := LookupWorkload(e.Workload)
	if err != nil {
		return Result{}, err
	}
	return Run(t, w, e.Pipeline, e.N, opts)
}

// cacheKey is the memoization key: the cell's whole name. It embeds
// RunOptions rather than copying fields out of it, so a field added there
// keys the memo without anyone remembering to (FingerprintKey, the store's
// half of the same name, is held to it by TestRunOptionsIsTheCellName).
type cacheKey struct {
	exp  Experiment
	opts RunOptions
}

func keyOf(e Experiment, opts RunOptions) cacheKey { return cacheKey{exp: e, opts: opts} }

// cell is one memoized experiment execution. Concurrent duplicate requests
// collapse onto it: exactly one goroutine claims the cell and computes (or
// loads) the result, every other goroutine waits on done — selectable
// against a context, so an abandoned request stops waiting without
// disturbing the computation that still serves everyone else.
type cell struct {
	win  sync.Once
	done chan struct{}
	res  Result
	err  error
	// shed marks a cell whose leader was refused admission: it carries no
	// result, it is already out of the map, and its waiters re-claim.
	shed bool
}

func newCell() *cell { return &cell{done: make(chan struct{})} }

// claim reports whether the caller won the right (and the obligation) to
// publish the cell's result and close done.
func (c *cell) claim() bool {
	won := false
	c.win.Do(func() { won = true })
	return won
}

// PanicError is what a cell reports when compiling or simulating it
// panicked: the panic is contained to the callers waiting on that cell,
// and the cell is dropped rather than memoized, so a retry recomputes.
type PanicError struct {
	Exp   Experiment
	Value any // the recovered panic value
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("core: panic computing %s: %v", p.Exp, p.Value)
}

// lruEntry pairs a cell with its key so eviction can delete the map entry.
type lruEntry struct {
	key cacheKey
	c   *cell
}

// Predictor is a simulation-free estimator of experiment results — the
// analytical tier of DESIGN.md §10 (implemented by internal/analytic).
// Predict must be safe for concurrent use, mark returned results
// Analytic, and answer in microseconds; the runner never caches or
// persists what it returns.
type Predictor interface {
	Predict(e Experiment) (Result, error)
}

// RunnerOptions configures a Runner beyond the worker-pool bound.
type RunnerOptions struct {
	// Workers bounds the worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Store, when non-nil, persists results across processes: memory
	// misses consult it before computing, and fresh results are saved back.
	Store Store
	// MaxCells bounds the in-memory cell map (LRU eviction); <= 0 means
	// unbounded. Evicted cells fall back to the Store (or recompute).
	MaxCells int
	// OnStoreError, when non-nil, observes every persistent-store
	// operational failure the runner tolerates: op is "load" or "save".
	// The runner degrades rather than fails — a broken store means
	// results stop being durable, not that serving stops — so this hook
	// is how a daemon logs and alerts on the degradation. It is called
	// outside the runner lock and must be safe for concurrent use.
	OnStoreError func(op string, e Experiment, err error)
}

// Runner executes experiments on a bounded worker pool with a
// per-experiment result cache. The co-simulator is deterministic, so a
// cached Result is indistinguishable from a fresh run; cached results are
// shared, and callers must treat their slices (PassStats, Trace) as
// read-only.
//
// A Runner is safe for concurrent use.
type Runner struct {
	workers      int
	store        Store
	maxCells     int
	onStoreError func(op string, e Experiment, err error)

	mu        sync.Mutex
	cells     map[cacheKey]*list.Element
	lru       *list.List // front = most recently used *lruEntry
	stats     CacheStats
	predictor Predictor
}

// NewRunner returns a runner with the given worker-pool bound; workers <= 0
// selects GOMAXPROCS.
func NewRunner(workers int) *Runner {
	return NewRunnerWith(RunnerOptions{Workers: workers})
}

// NewRunnerWith returns a runner configured by opts.
func NewRunnerWith(opts RunnerOptions) *Runner {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		workers:      workers,
		store:        opts.Store,
		maxCells:     opts.MaxCells,
		onStoreError: opts.OnStoreError,
		cells:        map[cacheKey]*list.Element{},
		lru:          list.New(),
	}
}

// Workers returns the worker-pool bound.
func (r *Runner) Workers() int { return r.workers }

// Store returns the persistent backend, or nil.
func (r *Runner) Store() Store { return r.store }

// Predictor returns the analytical tier, or nil.
func (r *Runner) Predictor() Predictor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.predictor
}

// SetPredictor installs (or clears) the analytical tier Screen and RunTopK
// answer from — a runner without one fails those calls; Run, RunAll and
// RunAdmitted never consult it. It is safe while the runner is serving:
// analytic.Attach hands a loaded or freshly fitted model to a long-lived
// runner through it.
func (r *Runner) SetPredictor(p Predictor) {
	r.mu.Lock()
	r.predictor = p
	r.mu.Unlock()
}

// CacheSize returns the number of memoized experiment cells.
func (r *Runner) CacheSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cells)
}

// Snapshot returns a copy of the cache counters at this instant.
func (r *Runner) Snapshot() CacheStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// cell returns the memo cell for k, creating it on a miss; created reports
// whether this call created it. Every call is one request: it counts a
// memory hit or a memory miss.
func (r *Runner) cell(k cacheKey) (c *cell, created bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.cells[k]; ok {
		r.lru.MoveToFront(el)
		r.stats.MemHits++
		return el.Value.(*lruEntry).c, false
	}
	r.stats.MemMisses++
	c = newCell()
	r.insert(k, c)
	return c, true
}

// insert adds c to the cell map as the most recently used entry and
// applies the LRU bound. The caller holds r.mu and has checked k is absent.
func (r *Runner) insert(k cacheKey, c *cell) {
	r.cells[k] = r.lru.PushFront(&lruEntry{key: k, c: c})
	if r.maxCells > 0 {
		for r.lru.Len() > r.maxCells {
			// Evicting an in-flight cell is safe: goroutines already
			// holding the pointer finish on it, and a later request either
			// re-loads from the store or recomputes.
			back := r.lru.Back()
			delete(r.cells, back.Value.(*lruEntry).key)
			r.lru.Remove(back)
			r.stats.Evictions++
		}
	}
}

func (r *Runner) bump(f func(*CacheStats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}

// storeError records one tolerated persistent-store failure and notifies
// the OnStoreError observer. Every store fault funnels through here: the
// runner keeps serving from memory (degraded mode) and only the counter
// and the hook reveal the degradation.
func (r *Runner) storeError(op string, e Experiment, err error) {
	r.bump(func(s *CacheStats) { s.StoreErrors++ })
	if r.onStoreError != nil {
		r.onStoreError(op, e, err)
	}
}

// Run executes one experiment, memoized: the first request for a cell
// consults the persistent store, then compiles and simulates on a store
// miss; every later request (including a concurrent duplicate) returns the
// stored result. Fresh results are saved back to the store. It is
// RunAdmitted with no admission step.
func (r *Runner) Run(ctx context.Context, e Experiment, opts RunOptions) (Result, error) {
	res, err, _ := r.RunAdmitted(ctx, e, opts, nil)
	return res, err
}

// RunAdmitted is Run with an admission step inside the cell claim — the
// single coalescing point a serving layer needs. Only the goroutine that
// claims the cell (the leader; led reports it) calls admit, and it holds
// what admit granted until the cell is published, then calls release;
// every concurrent duplicate waits on the cell and never touches
// admission. A nil admit admits everything.
//
// The context governs waiting, not computing: a request that arrives while
// the cell is in flight waits cancellably for it, a leader queued inside
// admit is cancelled by its own ctx, and a request whose context is
// already cancelled returns immediately — but once a leader is admitted it
// computes to completion (the deterministic result serves every later
// request, including requests whose owner gave up).
//
// A leader that admit refuses returns admit's error to its own caller
// only: the cell is un-published and its waiters re-claim, so one of them
// leads next under its own admit and context. A panic in the admitted
// section (or in admit) is recovered and reported to the leader and the
// current waiters as a *PanicError; the cell is dropped, never memoized
// and never written to the store.
//
// The answer is always simulated ground truth: RunAdmitted never consults
// the Predictor (Screen and RunTopK do), so the cell map and the store hold
// nothing else.
func (r *Runner) RunAdmitted(ctx context.Context, e Experiment, opts RunOptions, admit func(context.Context) (release func(), err error)) (res Result, err error, led bool) {
	if err := ctx.Err(); err != nil {
		return Result{}, err, false
	}
	k := keyOf(e, opts)
	for {
		c, _ := r.cell(k)
		if c.claim() {
			res, err = r.lead(ctx, k, c, e, opts, admit)
			return res, err, true
		}
		select {
		case <-c.done:
			if !c.shed {
				return c.res, c.err, false
			}
			// The leader was refused admission; lead or follow the next
			// attempt, unless this caller has given up as well.
			if err := ctx.Err(); err != nil {
				return Result{}, err, false
			}
		case <-ctx.Done():
			return Result{}, ctx.Err(), false
		}
	}
}

// lead resolves a cell this goroutine claimed and closes done on every
// path, so no waiter is ever left behind.
func (r *Runner) lead(ctx context.Context, k cacheKey, c *cell, e Experiment, opts RunOptions, admit func(context.Context) (func(), error)) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			c.res, c.err = Result{}, &PanicError{Exp: e, Value: p}
			res, err = c.res, c.err
			r.drop(k, c)
		}
		close(c.done)
	}()
	if admit != nil {
		release, aerr := admit(ctx)
		if aerr != nil {
			c.shed = true
			r.drop(k, c)
			return Result{}, aerr
		}
		// Deferred after the recover above, so it runs first: whatever admit
		// granted is given back before any waiter wakes, panic or not.
		defer release()
	}
	c.res, c.err = r.compute(e, opts)
	return c.res, c.err
}

// drop removes c from the cell map (unless the LRU already evicted it, or
// replaced it), so the next request for k starts a fresh cell. It must run
// before done is closed: a woken waiter looks k up again.
func (r *Runner) drop(k cacheKey, c *cell) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.cells[k]; ok && el.Value.(*lruEntry).c == c {
		delete(r.cells, k)
		r.lru.Remove(el)
	}
}

// Peek returns the memoized result of an already-completed cell without
// computing, waiting, or consulting the persistent store. The boolean
// reports a usable hit: false when the cell is absent, still in flight, or
// completed with an error — callers fall back to Run, which serves the
// cached error (or computes) consistently. A hit refreshes the cell's LRU
// position and counts as a memory hit, exactly like Run on a warm cell.
//
// Serving layers use Peek as their zero-allocation fast path: a hot cell
// resolves with one map lookup and no goroutine handshake. The returned
// pointer aliases the shared cached Result and must be treated as strictly
// read-only (the same rule Run's doc states for cached slices, extended to
// the whole struct).
func (r *Runner) Peek(e Experiment, opts RunOptions) (*Result, bool) {
	k := keyOf(e, opts)
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.cells[k]
	if !ok {
		return nil, false
	}
	c := el.Value.(*lruEntry).c
	select {
	case <-c.done:
	default:
		return nil, false
	}
	if c.err != nil {
		return nil, false
	}
	r.lru.MoveToFront(el)
	r.stats.MemHits++
	return &c.res, true
}

// compute resolves one claimed cell: store load, then compile + simulate on
// a miss, with the fresh result saved back.
func (r *Runner) compute(e Experiment, opts RunOptions) (Result, error) {
	if r.store != nil {
		res, ok, err := r.store.Load(e, opts)
		switch {
		case err != nil:
			r.storeError("load", e, err)
		case ok:
			r.bump(func(s *CacheStats) { s.StoreHits++ })
			return res, nil
		default:
			r.bump(func(s *CacheStats) { s.StoreMisses++ })
		}
	}
	res, err := RunExperiment(e, opts)
	r.bump(func(s *CacheStats) { s.Runs++ })
	if r.store != nil && err == nil {
		if serr := r.store.Save(e, opts, res); serr != nil {
			// Degraded mode: the result stays served from memory; only
			// durability is lost. Count it and tell the observer.
			r.storeError("save", e, serr)
		}
	}
	return res, err
}

// predict answers one experiment from the analytical tier.
func (r *Runner) predict(e Experiment) (Result, error) {
	p := r.Predictor()
	if p == nil {
		return Result{}, fmt.Errorf("experiment %s: runner has no analytic predictor (Runner.SetPredictor installs one)", e)
	}
	res, err := p.Predict(e)
	if err != nil {
		return Result{}, fmt.Errorf("experiment %s: %w", e, err)
	}
	r.bump(func(s *CacheStats) { s.Predictions++ })
	return res, nil
}

// Screen analytically predicts every experiment — the screening half of a
// multi-fidelity sweep. It performs zero simulator invocations (counter:
// CacheStats.Predictions advances, Runs does not), touches neither the
// memo map nor the store, and returns input-ordered results marked
// Analytic. On failure it returns the error of the lowest-indexed failing
// experiment alongside the partial results.
func (r *Runner) Screen(ctx context.Context, exps []Experiment) ([]Result, error) {
	results := make([]Result, len(exps))
	errs := make([]error, len(exps))
	ParallelEach(ctx, len(exps), r.workers, func(i int) {
		results[i], errs[i] = r.predict(exps[i])
	})
	if err := ctx.Err(); err != nil {
		return results, err
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// TopKByPredictedPerf ranks predicted results by ops/cycle (descending,
// ties broken toward the lower input index) and returns the indices of the
// k best, in ascending input order. k <= 0 selects nothing; k >= len
// selects everything.
func TopKByPredictedPerf(preds []Result, k int) []int {
	idx := make([]int, len(preds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return preds[idx[a]].OpsPerCycle() > preds[idx[b]].OpsPerCycle()
	})
	switch {
	case k < 0:
		k = 0
	case k > len(idx):
		k = len(idx)
	}
	top := idx[:k]
	sort.Ints(top)
	return top
}

// RunTopK is the multi-fidelity sweep (DESIGN.md §10): every cell is
// screened analytically, only the k most promising (highest predicted
// ops/cycle) are compiled and simulated at full fidelity, and the
// input-ordered result slice carries simulated ground truth for the chosen
// cells and Analytic predictions for the rest. k >= len(exps) degenerates
// to RunAll. The simulated subset flows through the normal memo/store
// path, so a repeated top-k sweep re-simulates nothing.
func (r *Runner) RunTopK(ctx context.Context, exps []Experiment, opts RunOptions, k int) ([]Result, error) {
	if k >= len(exps) {
		return r.RunAll(ctx, exps, opts)
	}
	preds, err := r.Screen(ctx, exps)
	if err != nil {
		return preds, err
	}
	top := TopKByPredictedPerf(preds, k)
	chosen := make([]Experiment, len(top))
	for i, j := range top {
		chosen[i] = exps[j]
	}
	simmed, err := r.RunAll(ctx, chosen, opts)
	for i, j := range top {
		preds[j] = simmed[i]
	}
	return preds, err
}

// Preload publishes an already-materialized result into the in-memory cell
// map without consulting the store or computing anything; it reports
// whether the cell was absent and is now served from res. Serving layers
// use it to warm a runner from a store enumeration at boot. A preloaded
// cell is not a request: no hit, miss or store counter moves (only
// Evictions, if the insert pushes the map past its bound).
func (r *Runner) Preload(e Experiment, opts RunOptions, res Result) bool {
	c := newCell()
	c.claim()
	c.res = res
	close(c.done)
	k := keyOf(e, opts)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.cells[k]; ok {
		return false
	}
	r.insert(k, c)
	return true
}

// RunAll executes the experiments concurrently on the worker pool and
// returns their results in input order — results[i] belongs to exps[i], so
// parallel output is byte-identical to a serial (workers = 1) run. On
// failure it returns the error of the lowest-indexed failing experiment
// alongside the partial results. A cancelled context stops dispatching
// further experiments and returns the context's error with the partial
// results (experiments already in flight run to completion and stay
// cached).
func (r *Runner) RunAll(ctx context.Context, exps []Experiment, opts RunOptions) ([]Result, error) {
	results := make([]Result, len(exps))
	errs := make([]error, len(exps))

	ParallelEach(ctx, len(exps), r.workers, func(i int) {
		results[i], errs[i] = r.Run(ctx, exps[i], opts)
	})
	if err := ctx.Err(); err != nil {
		return results, err
	}

	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("experiment %s: %w", exps[i], err)
		}
	}
	return results, nil
}

// ParallelEach runs fn(i) for i in [0, n) on a bounded worker pool — the
// execution backbone shared by Runner.RunAll, the serving layer's sweep
// endpoint and the cwfuzz campaign driver. workers <= 0 selects
// GOMAXPROCS; the pool never exceeds n. fn is responsible for writing its
// result into an index-addressed slot, which keeps concurrent output
// deterministic and input-ordered.
//
// A cancelled context stops further dispatch: indices not yet handed to a
// worker are never run (their slots stay untouched), indices already
// running complete, and the context's error is returned. A nil error means
// fn ran for every index.
func ParallelEach(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	done := ctx.Done()
dispatch:
	for i := 0; i < n; i++ {
		// select picks among ready cases at random, so an idle worker alone
		// would let a cancelled context still dispatch; look at it first.
		select {
		case <-done:
			break dispatch
		default:
		}
		select {
		case idx <- i:
		case <-done:
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return ctx.Err()
}

// Sweep builds the full cross product of the given targets, workloads,
// pipelines and sizes, in deterministic row-major order.
func Sweep(targets, workloads []string, pipelines []Pipeline, sizes []int) []Experiment {
	exps := make([]Experiment, 0, len(targets)*len(workloads)*len(pipelines)*len(sizes))
	for _, t := range targets {
		for _, w := range workloads {
			for _, p := range pipelines {
				for _, n := range sizes {
					exps = append(exps, Experiment{Target: t, Workload: w, Pipeline: p, N: n})
				}
			}
		}
	}
	return exps
}

// Shard returns the i-th of m strided partitions of exps (elements i, i+m,
// i+2m, ...). The m shards of one sweep are disjoint and cover it exactly,
// so a figure grid can be split across processes that share a persistent
// store: each process runs its shard, and a final pass reads every cell
// back. Striding (rather than chunking) spreads the expensive large-n
// cells of a row-major sweep evenly across shards.
func Shard(exps []Experiment, i, m int) ([]Experiment, error) {
	if m < 1 {
		return nil, fmt.Errorf("shard: count %d < 1", m)
	}
	if i < 0 || i >= m {
		return nil, fmt.Errorf("shard: index %d out of range [0,%d)", i, m)
	}
	var part []Experiment
	for j := i; j < len(exps); j += m {
		part = append(part, exps[j])
	}
	return part, nil
}
