package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"configwall/internal/core"
)

// RetryPolicy drives the client's self-healing layer: capped exponential
// backoff with deterministic jitter, honoring server Retry-After hints.
// Only idempotent requests go through it — /v1/run is a memoized GET, the
// probes are reads and /v1/sweep replays are deduplicated by cell index —
// so a retry can never double-apply anything; at worst it re-asks a
// question the server has already answered from cache.
//
// The zero value is usable and selects the defaults below.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries (first attempt included);
	// <= 0 selects 4.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// attempt. <= 0 selects 50ms.
	BaseDelay time.Duration
	// MaxDelay caps every sleep, including server Retry-After hints —
	// a hinted delay above the cap sleeps the cap, so one bad hint can
	// never wedge a campaign. <= 0 selects 2s.
	MaxDelay time.Duration
	// Seed makes the jitter deterministic: equal seeds replay the exact
	// backoff sequence (the chaos harness depends on it). 0 is a valid
	// seed, not "random".
	Seed int64
	// Sleep replaces the delay function; nil selects a real
	// context-aware sleep. Tests inject instant sleeps here.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when set, observes every retry with the attempt number
	// (1-based, the attempt that just failed), the chosen delay and the
	// error being retried.
	OnRetry func(attempt int, delay time.Duration, err error)
}

const (
	defaultRetryAttempts  = 4
	defaultRetryBaseDelay = 50 * time.Millisecond
	defaultRetryMaxDelay  = 2 * time.Second
)

// withDefaults resolves the zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultRetryAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = defaultRetryBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = defaultRetryMaxDelay
	}
	if p.Sleep == nil {
		p.Sleep = sleepFor
	}
	return p
}

// sleepFor waits for d or until ctx is done, whichever comes first.
func sleepFor(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// delay computes the wait before retry number `retry` (1-based) under a
// policy whose defaults are resolved: capped
// exponential backoff, deterministic jitter in [½, 1]× the backoff, and
// the server's Retry-After hint as a floor (still under the cap).
func (p RetryPolicy) delay(retry int, rng *rand.Rand, err error) time.Duration {
	d := p.BaseDelay << (retry - 1)
	if d > p.MaxDelay || d <= 0 { // <= 0 guards shift overflow
		d = p.MaxDelay
	}
	d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		if hint := time.Duration(se.RetryAfter) * time.Second; hint > d {
			d = hint
		}
	}
	return min(d, p.MaxDelay)
}

// Retryable reports whether err is worth retrying on an idempotent
// request: transport-level failures (resets, timeouts, any net.Error),
// bodies cut mid-stream, truncated NDJSON sweeps, server backpressure
// (429) and transient server errors (5xx). Context cancellation and
// client-side mistakes (other 4xx) are permanent.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == 429 || se.Code >= 500
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrTruncatedStream) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// loop is the one retry loop: every client call that asks the daemon again
// — RunRawWithRetry, SweepWithResume, the probes, LoadGen — runs its attempt
// through it. It calls attempt until it succeeds, fails in a way retryable
// turns down, or the policy's attempts run out, sleeping the policy's delay
// in between, and returns the last attempt's error with the number of
// attempts made. A sleep cut short by ctx ends the loop with ctx's error
// and cut set. attempt does not escape (callers' results stay on their
// stacks) and the jitter source is built on the first retry, so a
// first-time success allocates nothing here.
func (p RetryPolicy) loop(ctx context.Context, retryable func(error) bool, attempt func() error) (attempts int, cut bool, err error) {
	p = p.withDefaults()
	var rng *rand.Rand
	for n := 1; ; n++ {
		err = attempt()
		if err == nil || !retryable(err) || n == p.MaxAttempts {
			return n, false, err
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(p.Seed))
		}
		d := p.delay(n, rng, err)
		if p.OnRetry != nil {
			p.OnRetry(n, d, err)
		}
		if serr := p.Sleep(ctx, d); serr != nil {
			return n, true, serr
		}
	}
}

// runRaw is RunRaw asked again under pol while retryable says so.
func (c *Client) runRaw(ctx context.Context, e core.Experiment, opts core.RunOptions, pol RetryPolicy, retryable func(error) bool) (body []byte, err error) {
	n, cut, err := pol.loop(ctx, retryable, func() (err error) {
		body, err = c.RunRaw(ctx, e, opts)
		return err
	})
	if err != nil && !cut {
		err = fmt.Errorf("run %s after %d attempts: %w", e, n, err)
	}
	return body, err
}

// RunRawWithRetry is RunRaw behind the retry policy: it re-issues the
// (idempotent, memoized) request on retryable failures until it succeeds,
// a permanent error surfaces, or attempts run out.
func (c *Client) RunRawWithRetry(ctx context.Context, e core.Experiment, opts core.RunOptions, pol RetryPolicy) ([]byte, error) {
	return c.runRaw(ctx, e, opts, pol, Retryable)
}

// RunWithRetry is Run behind the retry policy.
func (c *Client) RunWithRetry(ctx context.Context, e core.Experiment, opts core.RunOptions, pol RetryPolicy) (core.Result, error) {
	return decodeResult(c.RunRawWithRetry(ctx, e, opts, pol))
}

// getText fetches one of the daemon's small read-only endpoints behind the
// retry policy, so a client's probes heal the way its cells do.
func (c *Client) getText(ctx context.Context, path string, pol RetryPolicy) (string, error) {
	var body []byte
	n, cut, err := pol.loop(ctx, Retryable, func() (err error) {
		body, err = c.get(ctx, c.Base+path)
		return err
	})
	if err != nil && !cut {
		err = fmt.Errorf("GET %s after %d attempts: %w", path, n, err)
	}
	return string(body), err
}

// SweepWithResume is Sweep behind the retry policy: when the stream drops
// mid-sweep (truncation, transport failure, backpressure), it re-issues
// the request and resumes from where the last attempt left off — cells
// already delivered to fn are deduplicated by index, so fn sees every
// cell exactly once no matter how many times the stream restarts. The
// server replays completed cells from its memo cache, so a resume costs
// bandwidth, not simulation time.
func (c *Client) SweepWithResume(ctx context.Context, rq SweepRequest, pol RetryPolicy, fn func(SweepEvent) error) (SweepSummary, error) {
	seen := make(map[int]bool)
	var fnErr error // the caller aborted: not a stream fault, never retried
	deliver := func(ev SweepEvent) error {
		if ev.Index == nil {
			return fmt.Errorf("sweep cell event without an index")
		}
		if seen[*ev.Index] {
			return nil // replayed on resume; already delivered
		}
		if fn != nil {
			if fnErr = fn(ev); fnErr != nil {
				return fnErr
			}
		}
		seen[*ev.Index] = true
		return nil
	}
	// A resumed stream replays every cell (the dedup above keeps fn
	// exactly-once), so the per-attempt cell count matches the trailer
	// again on a clean attempt.
	var summary SweepSummary
	n, cut, err := pol.loop(ctx, func(err error) bool { return fnErr == nil && Retryable(err) }, func() (err error) {
		summary, err = c.Sweep(ctx, rq, deliver)
		return err
	})
	switch {
	case err == nil, fnErr != nil:
		return summary, fnErr
	case cut:
		return SweepSummary{}, err
	}
	return SweepSummary{}, fmt.Errorf("sweep after %d attempts: %w", n, err)
}
