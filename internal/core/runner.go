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
// the process, so a restarted daemon — or a resumed crashed sweep — skips
// every cell that already ran; and an LRU bound on
// the in-memory cell map keeps long-lived sweep servers from growing
// without limit.

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"sync"

	"configwall/internal/accel"
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
	return runExperiment(e, opts, nil)
}

// runExperiment is RunExperiment with the device's launches looked up in
// memo first (nil: none).
func runExperiment(e Experiment, opts RunOptions, memo *accel.LaunchMemo) (Result, error) {
	t, err := LookupTarget(e.Target)
	if err != nil {
		return Result{}, err
	}
	w, err := LookupWorkload(e.Workload)
	if err != nil {
		return Result{}, err
	}
	return run(t, w, e.Pipeline, e.N, opts, memo)
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

	// launches is the runner's launch memo: the cells it computes replay
	// a device launch another of its cells already ran on the same
	// configuration and bytes (accel.LaunchMemo).
	launches *accel.LaunchMemo

	mu    sync.Mutex
	cells map[cacheKey]*list.Element
	lru   *list.List // front = most recently used *lruEntry
	stats CacheStats
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
		launches:     accel.NewLaunchMemo(),
		cells:        map[cacheKey]*list.Element{},
		lru:          list.New(),
	}
}

// Workers returns the worker-pool bound.
func (r *Runner) Workers() int { return r.workers }

// CacheSize returns the number of memoized experiment cells.
func (r *Runner) CacheSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cells)
}

// Snapshot returns a copy of the cache counters at this instant.
func (r *Runner) Snapshot() CacheStats {
	r.mu.Lock()
	s := r.stats
	r.mu.Unlock()
	s.LaunchHits, s.LaunchMisses = r.launches.Stats()
	return s
}

// cell returns the memo cell for k, creating it on a miss as the most
// recently used entry under the LRU bound; created reports whether this
// call created it. Every call is one request: it counts a memory hit or a
// memory miss.
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
	return c, true
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
	res, err := runExperiment(e, opts, r.launches)
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
