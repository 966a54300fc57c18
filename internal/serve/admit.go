package serve

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Admission errors, mapped to 429 by the HTTP layer. They are the
// backpressure contract: a server under load sheds distinct-cell work
// deterministically instead of growing an unbounded goroutine backlog.
var (
	// ErrQueueFull means the bounded admission queue had no room — the
	// request was rejected immediately.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrQueueTimeout means the request queued but no execution slot
	// freed up within the queue timeout.
	ErrQueueTimeout = errors.New("serve: queue wait timed out")
)

// admission bounds how much experiment computation the server attempts at
// once: at most `concurrency` computations execute, at most `depth` more
// wait for a slot (each with a timeout), and everything beyond that is
// rejected outright. Coalesced duplicates never enter admission (only the
// goroutine that claims a cell in core.Runner.RunAdmitted does), so the
// bound is on *distinct* in-flight cells.
type admission struct {
	// base is the server's lifetime; once it ends every wait fails.
	base context.Context

	slots       chan struct{} // capacity = concurrency; holding a token = executing
	tickets     chan struct{} // capacity = concurrency + depth; bounds waiters
	timeout     time.Duration
	concurrency int

	// holdMu guards holdEWMA, an exponentially weighted moving average of
	// how long execution slots are held. It sizes Retry-After hints: the
	// expected wait for the load ahead of a shed request is
	// (queued ÷ concurrency) × average hold time.
	holdMu   sync.Mutex
	holdEWMA time.Duration
}

func newAdmission(base context.Context, concurrency, depth int, timeout time.Duration) *admission {
	return &admission{
		base:        base,
		slots:       make(chan struct{}, concurrency),
		tickets:     make(chan struct{}, concurrency+depth),
		timeout:     timeout,
		concurrency: concurrency,
	}
}

// recordHold folds one finished slot hold into the EWMA (weight 1/4 on
// the new sample: stable under mixed cached/cold traffic, yet converging
// within a few cells after the workload shifts).
func (a *admission) recordHold(d time.Duration) {
	a.holdMu.Lock()
	if a.holdEWMA == 0 {
		a.holdEWMA = d
	} else {
		a.holdEWMA = (3*a.holdEWMA + d) / 4
	}
	a.holdMu.Unlock()
}

// retryAfterSeconds derives the Retry-After hint for a shed request: the
// expected time for the work already admitted to drain through the slot
// pool, clamped to [1s, queue timeout] (a client told to wait longer than
// the queue timeout would always do better re-queueing at the horizon).
func (a *admission) retryAfterSeconds() int {
	a.holdMu.Lock()
	hold := a.holdEWMA
	a.holdMu.Unlock()
	est := time.Second
	if hold > 0 && a.concurrency > 0 {
		est = time.Duration(len(a.tickets)) * hold / time.Duration(a.concurrency)
	}
	max := int(a.timeout.Seconds() + 0.999)
	if max < 1 {
		max = 1
	}
	secs := int(est.Seconds() + 0.999) // ceil: never hint a zero wait
	if secs < 1 {
		secs = 1
	}
	if secs > max {
		secs = max
	}
	return secs
}

// acquire claims an execution slot with request semantics: it rejects with
// ErrQueueFull when the queue is at capacity, waits at most the queue
// timeout for a slot (ErrQueueTimeout), and aborts if ctx is cancelled or
// the server closes.
// On success the returned release must be called exactly once.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	select {
	case a.tickets <- struct{}{}:
	default:
		return nil, ErrQueueFull
	}
	timer := time.NewTimer(a.timeout)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		start := time.Now()
		return func() { a.recordHold(time.Since(start)); <-a.slots; <-a.tickets }, nil
	case <-timer.C:
		<-a.tickets
		return nil, ErrQueueTimeout
	case <-ctx.Done():
		<-a.tickets
		return nil, ctx.Err()
	case <-a.base.Done():
		<-a.tickets
		return nil, a.base.Err()
	}
}

// acquireWait claims an execution slot with batch semantics: it bypasses
// the queue bound and waits indefinitely (until ctx cancels or the server
// closes). Sweep cells
// use it — a batch applies backpressure by trickling results out as slots
// free up, not by rejecting its own cells.
func (a *admission) acquireWait(ctx context.Context) (release func(), err error) {
	select {
	case a.slots <- struct{}{}:
		start := time.Now()
		return func() { a.recordHold(time.Since(start)); <-a.slots }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-a.base.Done():
		return nil, a.base.Err()
	}
}

// busy returns how many execution slots are held.
func (a *admission) busy() int { return len(a.slots) }

// queued returns how many request-mode acquisitions are in the system
// (executing or waiting).
func (a *admission) queued() int { return len(a.tickets) }
