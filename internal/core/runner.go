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
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"configwall/internal/accel"
	"configwall/internal/ir"
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
	return runExperiment(e, opts, nil, nil)
}

// runExperiment is RunExperiment with the compile resumed from families and
// the device's launches looked up in launches first (nil: neither).
func runExperiment(e Experiment, opts RunOptions, launches *accel.LaunchMemo, families *familyMemo) (Result, error) {
	t, err := LookupTarget(e.Target)
	if err != nil {
		return Result{}, err
	}
	w, err := LookupWorkload(e.Workload)
	if err != nil {
		return Result{}, err
	}
	return run(t, w, e.Pipeline, e.N, opts, launches, families)
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
// collapse onto it: the goroutine that creates the cell (Runner.cell) leads
// it, computing (or loading) the result; every other goroutine waits on
// done — selectable against a context, so an abandoned request stops
// waiting without disturbing the computation that still serves everyone
// else.
type cell struct {
	done chan struct{}
	res  Result
	err  error
	// shed marks a cell whose leader was refused admission: it carries no
	// result, it is already out of the map, and its waiters look it up
	// again, the first of them creating and leading a fresh one.
	shed bool
}

func newCell() *cell { return &cell{done: make(chan struct{})} }

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
// shared, and callers must treat their PassStats as read-only. A Runner
// never records a timeline: every Result it returns has a nil Trace.
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
	// families is the runner's family memo: the cells it computes start
	// from the module another pipeline of their family left where the two
	// fork (see "The family memo" below).
	families *familyMemo

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
		families:     newFamilyMemo(),
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
	s.FamilyHits, s.FamilyMisses, s.TailHits = r.families.Stats()
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

// RunAdmitted is Run with an admission step inside the cell's lead — the
// single coalescing point a serving layer needs. Only the goroutine that
// creates the cell (the leader; led reports it) calls admit, and it holds
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
// A leader that admit refuses returns admit's error to its own caller only:
// the cell is un-published and its waiters look it up again, so the one that
// creates it next leads under its own admit and context. A panic in the
// admitted section (or in admit) is recovered and reported to the leader and
// the current waiters as a *PanicError; the cell is dropped, never memoized
// and never written to the store.
func (r *Runner) RunAdmitted(ctx context.Context, e Experiment, opts RunOptions, admit func(context.Context) (release func(), err error)) (res Result, err error, led bool) {
	if err := ctx.Err(); err != nil {
		return Result{}, err, false
	}
	k := keyOf(e, opts)
	for {
		c, created := r.cell(k)
		if created {
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

// lead resolves a cell this goroutine created and closes done on every
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

// compute resolves one led cell: store load, then compile + simulate on
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
	res, err := runExperiment(e, opts, r.launches, r.families)
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
// Each worker claims its own next index from one shared counter, so no
// dispatcher goroutine stands between a finished index and the next one.
// A cancelled context stops further dispatch: every worker looks at the
// context before each claim, so indices not yet claimed by a worker are
// never run (their slots stay untouched), indices already running
// complete, and the context's error is returned. A nil error means fn ran
// for every index.
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

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
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

// The family memo. The four pipelines of one (target, workload, n) family
// compile the same instance, and three of them open with the same passes:
// the host-side sibling of the launch memo. A runner keeps, per family, the
// instance's buffers and immutable module snapshots at the depths where the
// family's pipelines fork (ir.SharedPrefix), so a cell it computes starts
// from the deepest snapshot on its pipeline's pass list and runs only the
// rest.
//
// Ownership. A snapshot is never written while it is published. It waits
// for the pipelines that share its passes and have not started; the last of
// them takes its module without a clone and removes it, every other clones
// it under the family's lock. A pipeline starts once per family: computed
// again (its cell evicted or dropped by a panic), it finds no snapshot and
// builds from scratch. Nothing ever waits on a family, and no lock is held
// across Build or a pass, so a panic in either costs the family its sharing
// and nothing else.
//
// Tails. Past its first lower-* pass a pipeline runs target code of its
// own pass list, so no snapshot is kept there. Yet pipelines whose passes
// leave one module at the lowering run one tail: the lowering, the passes
// after it, codegen, the simulation and golden verify. A cell's derivation
// is the list of the passes that changed its module since the build
// (ir.PassManager.Changed). Cells of one family that reach the lowering
// with equal derivations hold equal modules: the family's build is one
// instance, within one target each pass is a deterministic function of the
// module and is named uniquely (the fork rule's premise), and a pass that
// changed nothing left the module as it was. So a cell that runs its tail
// publishes it under (derivation, pass names from the lowering on) while a
// sibling has not reached its lowering yet, and a sibling that reaches it
// under the same key takes that Result and runs nothing. The second half of
// the key keeps the baseline, which runs no pass after its lowering, apart.
// Nothing waits on a tail: a sibling that gets there first runs its own.
//
// Bound. Each family, the bytes its buffers fill, every snapshot's ops and
// every tail are charged to familyMemoBudget. A family whose pipelines have
// all reached their lowering (or stopped before it) is dropped. Traffic
// that asks for a subset of the pipelines never gets there, so a charge
// past the budget first forgets the families with no cell in flight, and
// forgets every family only if that leaves no room.

const (
	// familyMemoBudget bounds what a runner's family memo keeps. A whole
	// sweep_large block, every family at once, charges under 2 MB, most of
	// it A and B. It is a constant, not a knob: past it the memo forgets
	// its idle families, then everything.
	familyMemoBudget = 16 << 20
	// familyBytes is what a family is charged before it holds anything,
	// opBytes what one op of a snapshot is charged (a clone allocates about
	// 470 bytes per op), and tailBytes what a tail is (a Result, whose stat
	// lines it shares with the cell that ran it).
	familyBytes = 256
	opBytes     = 512
	tailBytes   = 512
	// numPipelines is len(Pipelines): a family's size.
	numPipelines = int(AllOptimizations) + 1
)

// familyKey names a family: the cells that differ only in their pipeline.
type familyKey struct {
	target, workload string
	n                int
	opts             RunOptions
}

// forkTable is where a target's pipelines fork: depth[p][q] leading passes
// of p and q are the same passes, and depth[p][p] is where p's first
// lowering runs. stops[p] lists, ascending, the depths above 0 where a
// sibling leaves p, then p's lowering; tailPasses[p] names p's passes from
// the lowering on.
type forkTable struct {
	depth      [numPipelines][numPipelines]int
	stops      [numPipelines][]int
	tailPasses [numPipelines]string
}

func newForkTable(t Target) *forkTable {
	var names [numPipelines][]string
	for p := range names {
		names[p] = t.PassPipeline(Pipeline(p)).Passes()
	}
	ft := &forkTable{}
	for p := range names {
		var forks []int
		for q := range names {
			d := ir.SharedPrefix(names[p], names[q])
			ft.depth[p][q] = d
			if q != p && d > 0 && !slices.Contains(forks, d) {
				forks = append(forks, d)
			}
		}
		slices.Sort(forks)
		lowering := ft.depth[p][p]
		if !slices.Contains(forks, lowering) {
			forks = append(forks, lowering)
		}
		ft.stops[p] = forks
		ft.tailPasses[p] = strings.Join(names[p][lowering:], ",")
	}
	return ft
}

// tailKey names a tail: the derivation of the module at the lowering, and
// the pass names from the lowering on.
type tailKey struct {
	derivation []string
	passes     string
}

// tailKey is the key of p's tail at a module derived by the passes in
// derivation.
func (ft *forkTable) tailKey(p Pipeline, derivation []string) tailKey {
	return tailKey{slices.Clip(derivation), ft.tailPasses[p]}
}

func (k tailKey) equal(o tailKey) bool {
	return k.passes == o.passes && slices.Equal(k.derivation, o.derivation)
}

// group returns the pipelines, as a bit set, whose first d passes are p's.
func (ft *forkTable) group(p Pipeline, d int) uint8 {
	var g uint8
	for q, dq := range ft.depth[p] {
		if dq >= d {
			g |= 1 << q
		}
	}
	return g
}

// snapshot is a family's module after its first depth passes on some path,
// with their stat lines and its derivation, and the pipelines (a bit set)
// that will resume from it.
type snapshot struct {
	depth      int
	waiters    uint8
	module     *ir.Module
	stats      []string
	derivation []string
	cost       int
}

// tail is a Result a cell computed, kept for the siblings that reach their
// lowering under key: its stat lines are those from the lowering on.
type tail struct {
	key tailKey
	res Result
}

// family is one familyKey's shared state.
type family struct {
	key   familyKey
	memo  *familyMemo
	forks *forkTable

	mu      sync.Mutex
	buffers []Buffer // the first built instance's
	started uint8    // pipelines that have taken their start
	reached uint8    // pipelines past their lowering, or stopped before it
	snaps   []*snapshot
	tails   []tail
	// charged is what the memo counts for this family, and inflight how
	// many of its cells are between family and reach; the memo's lock
	// guards both.
	charged  int
	inflight int
}

// familyMemo is a runner's families.
type familyMemo struct {
	mu       sync.Mutex
	families map[familyKey]*family
	forks    map[string]*forkTable // by target name
	bytes    int
	// hits counts cells resumed from a snapshot, misses cells built fresh,
	// tailHits cells a sibling's tail served.
	hits, misses, tailHits atomic.Uint64
}

func newFamilyMemo() *familyMemo {
	return &familyMemo{families: map[familyKey]*family{}, forks: map[string]*forkTable{}}
}

// Stats returns the memo's hits, misses and tail hits.
func (fm *familyMemo) Stats() (hits, misses, tailHits uint64) {
	return fm.hits.Load(), fm.misses.Load(), fm.tailHits.Load()
}

// family returns p's family at (t, workload, n, opts), counting p's cell
// in flight until it reaches (family.reach); nil for a nil memo or a
// pipeline outside Pipelines.
func (fm *familyMemo) family(t Target, workload string, p Pipeline, n int, opts RunOptions) *family {
	if fm == nil || p < 0 || int(p) >= numPipelines {
		return nil
	}
	k := familyKey{t.Name, workload, n, opts}
	fm.mu.Lock()
	defer fm.mu.Unlock()
	f := fm.families[k]
	if f == nil {
		ft := fm.forks[t.Name]
		if ft == nil {
			ft = newForkTable(t)
			fm.forks[t.Name] = ft
		}
		f = &family{key: k, memo: fm, forks: ft, inflight: 1}
		fm.families[k] = f
		fm.charge(f, familyBytes)
		return f
	}
	f.inflight++
	return f
}

// stops returns the depths where p's compile stops: where a sibling forks
// from p, then where p's lowering runs. None for a nil family.
func (f *family) stops(p Pipeline) (depths []int, lowering int) {
	if f == nil {
		return nil, 0
	}
	return f.forks.stops[p], f.forks.depth[p][p]
}

// charge adds cost to what f holds, under the memo's lock, and reports
// whether f is still the memo's family for its key. A charge past the
// budget first forgets the families with no cell in flight, f among them
// if it has none; if that leaves no room, it forgets every family.
func (fm *familyMemo) charge(f *family, cost int) bool {
	if fm.families[f.key] != f {
		return false
	}
	if fm.bytes+cost > familyMemoBudget {
		for k, g := range fm.families {
			if g.inflight == 0 {
				delete(fm.families, k)
				fm.bytes -= g.charged
			}
		}
		if fm.families[f.key] != f {
			return false
		}
		if fm.bytes+cost > familyMemoBudget {
			clear(fm.families)
			fm.bytes = 0
			return false
		}
	}
	fm.bytes += cost
	f.charged += cost
	return true
}

// charge is the memo's charge under its lock; f's lock is held.
func (f *family) charge(cost int) bool {
	f.memo.mu.Lock()
	defer f.memo.mu.Unlock()
	return f.memo.charge(f, cost)
}

// take starts p in its family: the deepest snapshot p waits on, its own
// (the snapshot's module when p was its last waiter, a clone otherwise),
// with the family's buffers, and pm, p's manager, seeded with the stat
// lines so far and the derivation. A nil module means there is none, and p
// builds.
func (f *family) take(p Pipeline, pm *ir.PassManager) (m *ir.Module, buffers []Buffer) {
	if f == nil {
		return nil, nil
	}
	bit := uint8(1) << p
	f.mu.Lock()
	defer f.mu.Unlock()
	f.started |= bit
	var from *snapshot
	for _, s := range f.snaps {
		if s.waiters&bit != 0 && (from == nil || s.depth > from.depth) {
			from = s
		}
	}
	f.forget(bit, math.MaxInt)
	if from == nil {
		f.memo.misses.Add(1)
		return nil, nil
	}
	f.memo.hits.Add(1)
	m = from.module
	if from.waiters != 0 {
		m = m.Clone()
	}
	pm.Stats, pm.Changed = slices.Clone(from.stats), from.derivation
	return m, f.buffers
}

// reach records that p's cell is past its lowering, or stopped before it:
// no later tail is of use to p, and the cell is no longer in flight. Once
// every pipeline has reached, the family leaves the memo and drops its
// tails.
func (f *family) reach(p Pipeline) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reached |= 1 << p
	all := f.reached == 1<<numPipelines-1
	if all {
		f.tails = nil
	}
	f.memo.mu.Lock()
	f.inflight--
	if all && f.memo.families[f.key] == f {
		delete(f.memo.families, f.key)
		f.memo.bytes -= f.charged
	}
	f.memo.mu.Unlock()
}

// tail returns the Result of the sibling that shared its tail under key,
// with only the stat lines from the lowering on.
func (f *family) tail(key tailKey) (Result, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range f.tails {
		if t.key.equal(key) {
			f.memo.tailHits.Add(1)
			return t.res, true
		}
	}
	return Result{}, false
}

// share offers res, which p computed running the tail key names, to the
// siblings that have not reached their lowering. Once all have, the family
// has left the memo and no charge succeeds.
func (f *family) share(p Pipeline, key tailKey, res Result) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if slices.ContainsFunc(f.tails, func(t tail) bool { return t.key.equal(key) }) || !f.charge(tailBytes) {
		return
	}
	res.PassStats = res.PassStats[f.forks.depth[p][p]:]
	f.tails = append(f.tails, tail{key: key, res: res})
}

// publish offers p's module after its first d passes, whose stat lines
// stats holds and whose derivation is derivation, to the pipelines that
// share them and have not started. buffers are the instance's when p built
// it (d is 0), and the family keeps the first it is given.
func (f *family) publish(p Pipeline, d int, m *ir.Module, stats, derivation []string, buffers []Buffer) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.buffers == nil && buffers != nil {
		cost := 0
		for _, b := range buffers {
			if b.Init != nil {
				cost += int(b.Bytes)
			}
		}
		if !f.charge(cost) {
			return
		}
		f.buffers = buffers
	}
	// A waiter of a snapshot as deep or deeper resumes from that one.
	waiters := f.forks.group(p, d) &^ f.started
	for _, s := range f.snaps {
		if s.depth >= d {
			waiters &^= s.waiters
		}
	}
	if waiters == 0 || f.buffers == nil {
		return
	}
	cost := opBytes * ir.CountOps(m)
	if !f.charge(cost) {
		return
	}
	f.forget(waiters, d)
	f.snaps = append(f.snaps, &snapshot{depth: d, waiters: waiters, module: m.Clone(), stats: stats[:d:d],
		derivation: slices.Clip(derivation), cost: cost})
}

// forget removes the pipelines in bits from the waiters of every snapshot
// shallower than depth, and drops the snapshots no one waits for any more.
func (f *family) forget(bits uint8, depth int) {
	kept := f.snaps[:0]
	for _, s := range f.snaps {
		if s.depth < depth {
			s.waiters &^= bits
		}
		if s.waiters != 0 {
			kept = append(kept, s)
		} else {
			f.charge(-s.cost)
		}
	}
	clear(f.snaps[len(kept):])
	f.snaps = kept
}
