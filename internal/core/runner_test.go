package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"configwall/internal/core"
	"configwall/internal/sim"
)

// fullSweep is a small but complete cross of both targets, all pipelines
// and several sizes — the shape of a full-figure regeneration.
func fullSweep() []core.Experiment {
	var exps []core.Experiment
	exps = append(exps, core.Sweep(
		[]string{"opengemm"},
		[]string{core.WorkloadMatmul},
		core.Pipelines,
		[]int{8, 16, 24},
	)...)
	exps = append(exps, core.Sweep(
		[]string{"gemmini"},
		[]string{core.WorkloadMatmul},
		core.Pipelines,
		[]int{16, 32},
	)...)
	return exps
}

// TestRunnerDeterminism is the runner's central contract: a concurrent
// full-figure sweep must produce results identical to a serial run, cell
// for cell, in input order.
func TestRunnerDeterminism(t *testing.T) {
	exps := fullSweep()
	serial, err := core.NewRunner(1).RunAll(context.Background(), exps, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := core.NewRunner(8).RunAll(context.Background(), exps, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("experiment %s: serial and parallel results differ:\nserial:   %+v\nparallel: %+v",
				exps[i], serial[i], parallel[i])
		}
	}
}

// TestFigureRenderingDeterminism asserts the acceptance criterion end to
// end: every figure rendered from a concurrent runner is byte-identical to
// the serial rendering.
func TestFigureRenderingDeterminism(t *testing.T) {
	sizes := []int{16, 32}

	r10s, err := core.Figure10.With(context.Background(), core.NewRunner(1), sizes)
	if err != nil {
		t.Fatal(err)
	}
	r10p, err := core.Figure10.With(context.Background(), core.NewRunner(8), sizes)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := core.RenderFigure10(r10s), core.RenderFigure10(r10p); a != b {
		t.Errorf("Figure 10 differs between serial and parallel runs:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}

	r11s, err := core.Figure11.With(context.Background(), core.NewRunner(1), sizes)
	if err != nil {
		t.Fatal(err)
	}
	r11p, err := core.Figure11.With(context.Background(), core.NewRunner(8), sizes)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := core.RenderFigure11(r11s), core.RenderFigure11(r11p); a != b {
		t.Errorf("Figure 11 differs between serial and parallel runs:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}

	d12s, err := core.Figure12With(context.Background(), core.NewRunner(1), sizes)
	if err != nil {
		t.Fatal(err)
	}
	d12p, err := core.Figure12With(context.Background(), core.NewRunner(8), sizes)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := core.RenderFigure12(d12s), core.RenderFigure12(d12p); a != b {
		t.Errorf("Figure 12 differs between serial and parallel runs:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
}

// TestRunnerCacheReuse asserts the memoization contract: a repeated cell is
// served from the cache (one run, one memory hit, an equal Result) and the
// cache grows by distinct cells only.
func TestRunnerCacheReuse(t *testing.T) {
	r := core.NewRunner(2)
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 16}
	first, err := r.Run(context.Background(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(context.Background(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s := r.Snapshot(); s.Runs != 1 || s.MemHits != 1 {
		t.Errorf("repeated experiment: %d runs, %d memory hits; want 1 and 1", s.Runs, s.MemHits)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached Result differs from the run that filled it:\n%+v\n%+v", first, second)
	}
	if got := r.CacheSize(); got != 1 {
		t.Errorf("cache size = %d, want 1", got)
	}
	// Different options key different cells.
	if _, err := r.Run(context.Background(), e, core.RunOptions{Engine: sim.EngineRef}); err != nil {
		t.Fatal(err)
	}
	if got := r.CacheSize(); got != 2 {
		t.Errorf("cache size = %d, want 2 after options change", got)
	}
}

// TestRunnerDuplicateCellsInSweep: duplicate cells in one RunAll must
// all be answered, from a single execution.
func TestRunnerDuplicateCellsInSweep(t *testing.T) {
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8}
	r := core.NewRunner(4)
	results, err := r.RunAll(context.Background(), []core.Experiment{e, e, e, e}, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.CacheSize(); got != 1 {
		t.Errorf("cache size = %d, want 1 (duplicates collapse)", got)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("duplicate cell %d differs from cell 0", i)
		}
	}
}

// TestRunAllFirstErrorDeterministic: with several failing cells, RunAll
// reports the lowest-indexed failure regardless of scheduling.
func TestRunAllFirstErrorDeterministic(t *testing.T) {
	exps := []core.Experiment{
		{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8},
		{Target: "gemmini", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 20},  // invalid: not a multiple of 16
		{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 12}, // invalid: not a multiple of 8
	}
	for trial := 0; trial < 3; trial++ {
		_, err := core.NewRunner(8).RunAll(context.Background(), exps, core.RunOptions{})
		if err == nil {
			t.Fatal("expected error from invalid sizes")
		}
		if !strings.Contains(err.Error(), "gemmini/matmul/base/20") {
			t.Errorf("error %q does not name the lowest-indexed failing experiment", err)
		}
	}
}

// TestNewWorkloadsVerify: the registered rectangular and matvec-panel
// workloads compile, simulate and verify on both built-in targets, with the
// expected operation counts — the registry acceptance check that workloads
// beyond the paper's square matmul plug in without engine changes.
func TestNewWorkloadsVerify(t *testing.T) {
	cases := []struct {
		target   string
		workload string
		n        int
		wantOps  uint64
	}{
		// rectmm: M=n, K=2n, N=n/2 -> ops = 2*M*K*N = 2n^3.
		{"gemmini", core.WorkloadRectMM, 32, 2 * 32 * 32 * 32},
		{"opengemm", core.WorkloadRectMM, 16, 2 * 16 * 16 * 16},
		// matvec panel: M=n, K=n, N=16 -> ops = 2*n*n*16.
		{"gemmini", core.WorkloadMatvec, 32, 2 * 32 * 32 * 16},
		{"opengemm", core.WorkloadMatvec, 16, 2 * 16 * 16 * 16},
	}
	for _, tc := range cases {
		for _, p := range core.Pipelines {
			e := core.Experiment{Target: tc.target, Workload: tc.workload, Pipeline: p, N: tc.n}
			t.Run(e.String(), func(t *testing.T) {
				res, err := core.RunExperiment(e, core.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Verified {
					t.Error("result not verified")
				}
				if res.AccelOps != tc.wantOps {
					t.Errorf("AccelOps = %d, want %d", res.AccelOps, tc.wantOps)
				}
			})
		}
	}
}

// TestParallelEach: the shared worker-pool primitive visits every index
// exactly once regardless of worker bound, including the degenerate cases.
func TestParallelEach(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		const n = 100
		var visits [n]int32
		core.ParallelEach(context.Background(), n, workers, func(i int) {
			atomic.AddInt32(&visits[i], 1)
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
	// While fn runs, the pool is its workers and nothing else: no
	// dispatcher goroutine feeds them. fn(i) for i < workers waits until
	// every worker holds an index, so all of them exist when it counts.
	for _, workers := range []int{1, 2, 4} {
		base := runtime.NumGoroutine()
		var arrived atomic.Int64
		all := make(chan struct{})
		var extra atomic.Int64
		core.ParallelEach(context.Background(), 64, workers, func(i int) {
			if i >= workers {
				return
			}
			if arrived.Add(1) == int64(workers) {
				extra.Store(int64(runtime.NumGoroutine() - base))
				close(all)
			}
			<-all
		})
		if n := extra.Load(); n > int64(workers) {
			t.Errorf("workers=%d: %d goroutines beyond the caller's while fn runs, want at most %d", workers, n, workers)
		}
	}
	// n <= 0 must not call fn or hang.
	core.ParallelEach(context.Background(), 0, 4, func(int) { t.Fatal("fn called for n=0") })
	core.ParallelEach(context.Background(), -3, 4, func(int) { t.Fatal("fn called for n<0") })
}

// TestRunCancelledContext asserts a request whose context is already
// cancelled never computes (or claims a cell another request would then
// find poisoned).
func TestRunCancelledContext(t *testing.T) {
	r := core.NewRunner(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8}
	if _, err := r.Run(ctx, e, core.RunOptions{}); err == nil {
		t.Fatal("Run with a cancelled context must fail")
	}
	if s := r.Snapshot(); s.Runs != 0 {
		t.Errorf("cancelled request ran %d simulations, want 0", s.Runs)
	}
	// The cell must still be computable by a live request.
	if _, err := r.Run(context.Background(), e, core.RunOptions{}); err != nil {
		t.Fatalf("cell poisoned by the cancelled request: %v", err)
	}
}

// blockingStore parks every Load until released, making "cell claimed and
// in flight" an observable, controllable state for cancellation tests.
type blockingStore struct {
	entered chan struct{}
	release chan struct{}
}

func (s *blockingStore) Load(core.Experiment, core.RunOptions) (core.Result, bool, error) {
	s.entered <- struct{}{}
	<-s.release
	return core.Result{}, false, nil
}

func (s *blockingStore) Save(core.Experiment, core.RunOptions, core.Result) error { return nil }

// TestRunWaiterCancellation: a waiter on an in-flight cell detaches when
// its context cancels, while the computation completes and serves later
// requests from cache.
func TestRunWaiterCancellation(t *testing.T) {
	st := &blockingStore{entered: make(chan struct{}, 1), release: make(chan struct{})}
	r := core.NewRunnerWith(core.RunnerOptions{Workers: 4, Store: st})
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8}

	winnerDone := make(chan error, 1)
	go func() {
		_, err := r.Run(context.Background(), e, core.RunOptions{})
		winnerDone <- err
	}()
	<-st.entered // the winner has claimed the cell and is inside compute

	// The cell is provably in flight and blocked; the waiter must give up
	// at its deadline rather than ride out the computation.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := r.Run(ctx, e, core.RunOptions{}); err == nil {
		t.Error("waiter returned success while the cell was still in flight")
	}

	close(st.release)
	if err := <-winnerDone; err != nil {
		t.Fatalf("winner: %v", err)
	}
	if _, err := r.Run(context.Background(), e, core.RunOptions{}); err != nil {
		t.Fatalf("post-completion request: %v", err)
	}
	if s := r.Snapshot(); s.Runs != 1 {
		t.Errorf("Runs = %d, want 1 (waiter cancellation must not duplicate work)", s.Runs)
	}
}

var panickyOnce sync.Once

// panickyExp names a cell whose Build panics. The workload is registered
// once (the registry is global) and panics at n == 7 only; every other size
// is a plain error, so the registry-wide probes of other tests never trip
// it.
func panickyExp(t *testing.T) core.Experiment {
	t.Helper()
	panickyOnce.Do(func() {
		err := core.RegisterWorkload(core.Workload{
			Name:        "panicky",
			Description: "test workload whose build panics at n=7",
			Build: func(_ core.Target, n int) (core.Instance, error) {
				if n == 7 {
					panic("kaboom")
				}
				return core.Instance{}, fmt.Errorf("panicky: unsupported size %d", n)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	return core.Experiment{Target: "opengemm", Workload: "panicky", Pipeline: core.Baseline, N: 7}
}

// waitMemHits waits until n requests have found an existing cell in r —
// the observable moment a follower attaches to an in-flight cell.
func waitMemHits(t *testing.T, r *core.Runner, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.Snapshot().MemHits < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers attached", r.Snapshot().MemHits, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunPanicContained: a cell whose Build panics answers every
// concurrent caller — the leader and the waiters — with a *PanicError
// instead of hanging them, and the cell is dropped, not memoized: Peek
// misses and a later Run attempts the cell again.
func TestRunPanicContained(t *testing.T) {
	e := panickyExp(t)
	st := &blockingStore{entered: make(chan struct{}, 1), release: make(chan struct{})}
	r := core.NewRunnerWith(core.RunnerOptions{Workers: 4, Store: st})

	const callers = 8
	errs := make(chan error, callers)
	run := func() {
		_, err := r.Run(context.Background(), e, core.RunOptions{})
		errs <- err
	}
	go run()
	<-st.entered // the leader has claimed the cell and is inside compute
	for i := 1; i < callers; i++ {
		go run()
	}
	waitMemHits(t, r, callers-1)
	close(st.release)

	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			var pe *core.PanicError
			if !errors.As(err, &pe) || pe.Exp != e || !strings.Contains(err.Error(), "kaboom") {
				t.Errorf("caller %d: err = %v, want a *PanicError for %s carrying the panic value", i, err, e)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("caller %d still blocked on the panicked cell", i)
		}
	}
	if _, ok := r.Peek(e, core.RunOptions{}); ok {
		t.Error("Peek hit a panicked cell")
	}
	if n := r.CacheSize(); n != 0 {
		t.Errorf("CacheSize = %d after the panic, want 0 (the cell must be dropped)", n)
	}
	before := r.Snapshot().StoreMisses
	var pe *core.PanicError
	if _, err := r.Run(context.Background(), e, core.RunOptions{}); !errors.As(err, &pe) {
		t.Errorf("retry: err = %v, want a fresh *PanicError", err)
	}
	if after := r.Snapshot().StoreMisses; after != before+1 {
		t.Errorf("retry consulted the store %d times, want 1 (a memoized panic would not re-attempt)", after-before)
	}
}

// TestRunAdmittedReclaim: when the leader is refused admission, the error
// is the leader's alone — its waiters look the cell up again, exactly one of
// them leads (and is the only one put through admission), the cell is
// simulated once and every waiter gets the result.
func TestRunAdmittedReclaim(t *testing.T) {
	r := core.NewRunner(4)
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8}
	opts := core.RunOptions{}
	want, err := core.RunExperiment(e, opts)
	if err != nil {
		t.Fatal(err)
	}

	errShed := errors.New("shed")
	queued, refuse := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err, led := r.RunAdmitted(context.Background(), e, opts, func(context.Context) (func(), error) {
			close(queued)
			<-refuse
			return nil, errShed
		})
		if !led {
			t.Error("the first caller did not lead")
		}
		leaderErr <- err
	}()
	<-queued // the leader has claimed the cell and is inside admission

	const followers = 8
	var admits, released, leds atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err, led := r.RunAdmitted(context.Background(), e, opts, func(context.Context) (func(), error) {
				admits.Add(1)
				return func() { released.Add(1) }, nil
			})
			if led {
				leds.Add(1)
			}
			if err != nil || res.Counters != want.Counters {
				t.Errorf("follower %d: res %+v err %v, want the simulated result", i, res.Counters, err)
			}
		}(i)
	}
	waitMemHits(t, r, followers)
	close(refuse)

	if err := <-leaderErr; !errors.Is(err, errShed) {
		t.Errorf("refused leader returned %v, want its admission error", err)
	}
	wg.Wait()
	if a, rel, l := admits.Load(), released.Load(), leds.Load(); a != 1 || rel != 1 || l != 1 {
		t.Errorf("%d admissions, %d releases, %d leaders among the followers; want 1 each", a, rel, l)
	}
	if s := r.Snapshot(); s.Runs != 1 {
		t.Errorf("Runs = %d, want 1", s.Runs)
	}
}

// TestParallelEachCancellation asserts a pre-cancelled context dispatches
// nothing and a mid-run cancellation lets no worker claim another index.
func TestParallelEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := core.ParallelEach(ctx, 100, 4, func(int) { t.Error("fn called under a pre-cancelled context") }); err == nil {
		t.Error("ParallelEach must report the context error")
	}

	// A cancel inside fn(0) stops every claim after it. Indices other than
	// 0 wait for the cancel, so each worker holds at most one index when
	// it lands: exactly one index runs with one worker, at most four with
	// four.
	for _, tc := range []struct{ workers, max int }{{1, 1}, {4, 4}} {
		var ran atomic.Int64
		ctx2, cancel2 := context.WithCancel(context.Background())
		err := core.ParallelEach(ctx2, 1000, tc.workers, func(i int) {
			ran.Add(1)
			if i == 0 {
				cancel2()
			}
			<-ctx2.Done()
		})
		if err == nil {
			t.Errorf("workers=%d: mid-run cancellation must surface the context error", tc.workers)
		}
		if n := int(ran.Load()); n < 1 || n > tc.max {
			t.Errorf("workers=%d: %d indices ran after a cancel in fn(0), want at most %d", tc.workers, n, tc.max)
		}
	}

	// RunAll under a cancelled context returns the context error.
	r := core.NewRunner(2)
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, err := r.RunAll(cctx, fullSweep(), core.RunOptions{}); err == nil {
		t.Error("RunAll with a cancelled context must fail")
	}
	if s := r.Snapshot(); s.Runs != 0 {
		t.Errorf("cancelled RunAll still ran %d simulations", s.Runs)
	}
}

// TestPeek: the non-blocking cached-cell lookup must hit only completed,
// successful cells — absent and failed cells are misses that leave the
// caller on the Run path — and a hit must count as a memory hit like Run.
func TestPeek(t *testing.T) {
	r := core.NewRunner(1)
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8}
	opts := core.RunOptions{}

	if _, ok := r.Peek(e, opts); ok {
		t.Fatal("Peek hit on a cold runner")
	}
	want, err := r.Run(context.Background(), e, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Snapshot().MemHits
	got, ok := r.Peek(e, opts)
	if !ok {
		t.Fatal("Peek missed a completed cell")
	}
	if got.Counters != want.Counters {
		t.Errorf("Peek counters differ from Run: %+v vs %+v", got.Counters, want.Counters)
	}
	if after := r.Snapshot().MemHits; after != before+1 {
		t.Errorf("Peek hit did not count as a memory hit: %d -> %d", before, after)
	}
	// Different options key a different cell: no false sharing.
	if _, ok := r.Peek(e, core.RunOptions{Engine: sim.EngineRef}); ok {
		t.Error("Peek hit across a different RunOptions key")
	}
	// A failed cell is a Peek miss; Run still serves the cached error.
	bad := core.Experiment{Target: "no-such-target", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8}
	if _, err := r.Run(context.Background(), bad, opts); err == nil {
		t.Fatal("expected error for unknown target")
	}
	if _, ok := r.Peek(bad, opts); ok {
		t.Error("Peek hit an errored cell")
	}
}
