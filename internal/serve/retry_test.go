package serve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"configwall/internal/core"
	"configwall/internal/fault"
	"configwall/internal/serve"
)

// instantSleep makes retry backoff free in tests while still honoring
// context cancellation.
func instantSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// faultyClient wires a fault.Transport between the test client and server.
func faultyClient(ts *httptest.Server, plan *fault.Plan, retryAfter int) *serve.Client {
	return &serve.Client{
		Base:       ts.URL,
		HTTPClient: &http.Client{Transport: &fault.Transport{Plan: plan, RetryAfter: retryAfter}},
	}
}

// TestZeroValueClientPools: a zero-value Client must lazily build the same
// pooled transport NewClient configures — not fall back to
// http.DefaultClient.
func TestZeroValueClientPools(t *testing.T) {
	_, ts, _ := newTestServer(t, serve.Options{})
	c := &serve.Client{Base: ts.URL}
	if _, err := c.Healthz(context.Background(), serve.RetryPolicy{Sleep: instantSleep}); err != nil {
		t.Fatal(err)
	}
	hc := serve.ClientHTTPForTest(c)
	if hc == http.DefaultClient {
		t.Fatal("zero-value Client used http.DefaultClient")
	}
	tr, ok := hc.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("transport is %T, want *http.Transport", hc.Transport)
	}
	if tr.MaxIdleConnsPerHost != 256 {
		t.Errorf("MaxIdleConnsPerHost = %d, want 256", tr.MaxIdleConnsPerHost)
	}
	if serve.ClientHTTPForTest(c) != hc {
		t.Error("pooled client rebuilt on second use")
	}
	override := &http.Client{}
	c2 := &serve.Client{Base: ts.URL, HTTPClient: override}
	if serve.ClientHTTPForTest(c2) != override {
		t.Error("explicit HTTPClient not honored")
	}
}

// TestRetryable classifies errors the way the retry loop must.
func TestRetryable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"canceled", context.Canceled, false},
		{"deadline", fmt.Errorf("wrap: %w", context.DeadlineExceeded), false},
		{"429", &serve.StatusError{Code: 429}, true},
		{"500", &serve.StatusError{Code: 500}, true},
		{"503", &serve.StatusError{Code: 503}, true},
		{"404", &serve.StatusError{Code: 404}, false},
		{"400", &serve.StatusError{Code: 400}, false},
		{"unexpected EOF", fmt.Errorf("read: %w", io.ErrUnexpectedEOF), true},
		{"truncated stream", fmt.Errorf("x: %w", serve.ErrTruncatedStream), true},
		{"plain", errors.New("boom"), false},
	}
	for _, tc := range cases {
		if got := serve.Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRunWithRetryHealsTransportFaults: resets, timeouts, injected 503s
// and truncated bodies on the wire must all heal, and the healed body must
// be byte-identical to the fault-free answer.
func TestRunWithRetryHealsTransportFaults(t *testing.T) {
	_, ts, _ := newTestServer(t, serve.Options{})
	want := directBody(t, testExp, core.RunOptions{})

	// Each site fires once at full rate; RoundTrip consults them in order
	// and returns at the first that fires, so the four faults land on four
	// consecutive attempts and the fifth goes clean.
	plan := fault.New(3, map[fault.Site]fault.Rule{
		fault.TransportReset:       {Rate: 1, Max: 1},
		fault.TransportTimeout:     {Rate: 1, Max: 1},
		fault.TransportUnavailable: {Rate: 1, Max: 1},
		fault.TransportTruncate:    {Rate: 1, Max: 1},
	})
	c := faultyClient(ts, plan, 1)
	retries := 0
	pol := serve.RetryPolicy{
		MaxAttempts: 6,
		Sleep:       instantSleep,
		OnRetry:     func(int, time.Duration, error) { retries++ },
	}
	body, err := c.RunRawWithRetry(context.Background(), testExp, core.RunOptions{}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("healed body differs from fault-free body")
	}
	if retries != 4 {
		t.Errorf("retries = %d, want 4 (reset, timeout, 503, truncation)", retries)
	}
}

// TestRunWithRetryGivesUp: attempts are bounded, and permanent errors
// (plain 4xx) never retry at all.
func TestRunWithRetryGivesUp(t *testing.T) {
	_, ts, _ := newTestServer(t, serve.Options{})

	t.Run("exhausted", func(t *testing.T) {
		plan := fault.New(1, map[fault.Site]fault.Rule{fault.TransportReset: {Rate: 1}})
		c := faultyClient(ts, plan, 0)
		retries := 0
		pol := serve.RetryPolicy{MaxAttempts: 3, Sleep: instantSleep, OnRetry: func(int, time.Duration, error) { retries++ }}
		_, err := c.RunRawWithRetry(context.Background(), testExp, core.RunOptions{}, pol)
		if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
			t.Errorf("err = %v, want exhaustion after 3 attempts", err)
		}
		if retries != 2 {
			t.Errorf("retries = %d, want 2", retries)
		}
	})
	t.Run("permanent", func(t *testing.T) {
		c := serve.NewClient(ts.URL)
		retries := 0
		pol := serve.RetryPolicy{MaxAttempts: 5, Sleep: instantSleep, OnRetry: func(int, time.Duration, error) { retries++ }}
		bad := core.Experiment{Target: "nosuch", Workload: "matmul", Pipeline: core.AllOptimizations, N: 8}
		_, err := c.RunRawWithRetry(context.Background(), bad, core.RunOptions{}, pol)
		var se *serve.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Fatalf("err = %v, want a 400 StatusError", err)
		}
		if retries != 0 {
			t.Errorf("retries = %d, want 0 for a permanent 400", retries)
		}
	})
}

// TestRetryHonorsRetryAfter: the server's Retry-After hint floors the
// backoff, and MaxDelay caps it.
func TestRetryHonorsRetryAfter(t *testing.T) {
	_, ts, _ := newTestServer(t, serve.Options{})
	plan := fault.New(1, map[fault.Site]fault.Rule{fault.TransportUnavailable: {Rate: 1, Max: 1}})
	c := faultyClient(ts, plan, 30) // hint 30s, far above the cap
	var delays []time.Duration
	pol := serve.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Sleep:       instantSleep,
		OnRetry:     func(_ int, d time.Duration, _ error) { delays = append(delays, d) },
	}
	if _, err := c.RunRawWithRetry(context.Background(), testExp, core.RunOptions{}, pol); err != nil {
		t.Fatal(err)
	}
	if len(delays) != 1 {
		t.Fatalf("retries = %d, want 1", len(delays))
	}
	if delays[0] != 20*time.Millisecond {
		t.Errorf("delay = %v, want the 20ms cap (Retry-After 30s floored then capped)", delays[0])
	}
}

// TestRetryJitterDeterministic: equal seeds replay the identical backoff
// sequence; the chaos harness depends on this.
func TestRetryJitterDeterministic(t *testing.T) {
	_, ts, _ := newTestServer(t, serve.Options{})
	sequence := func(seed int64) []time.Duration {
		plan := fault.New(9, map[fault.Site]fault.Rule{fault.TransportReset: {Rate: 1}})
		c := faultyClient(ts, plan, 0)
		var ds []time.Duration
		pol := serve.RetryPolicy{
			MaxAttempts: 4,
			Seed:        seed,
			Sleep:       instantSleep,
			OnRetry:     func(_ int, d time.Duration, _ error) { ds = append(ds, d) },
		}
		c.RunRawWithRetry(context.Background(), testExp, core.RunOptions{}, pol)
		return ds
	}
	a, b := sequence(5), sequence(5)
	if len(a) != 3 {
		t.Fatalf("delays = %v, want 3 entries", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 5 reruns diverge: %v vs %v", a, b)
		}
	}
}

// TestSweepRejectsTruncatedStreams: streams that end without a trailer,
// carry a statusless trailer, keep talking after the trailer, or deliver
// fewer cells than the trailer claims are all ErrTruncatedStream.
func TestSweepRejectsTruncatedStreams(t *testing.T) {
	cell := `{"index":0,"experiment":{"target":"opengemm","workload":"matmul","pipeline":3,"n":8},"result":{}}`
	trailer := `{"done":true,"cells":1,"status":"ok"}`
	cases := []struct {
		name string
		body string
	}{
		{"no trailer", cell + "\n"},
		{"statusless trailer", cell + "\n" + `{"done":true,"cells":1}` + "\n"},
		{"events after trailer", cell + "\n" + trailer + "\n" + cell + "\n"},
		{"cell count short", trailer + "\n"},
		{"cut mid-line", cell + "\n" + trailer[:12]},
		{"empty", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				io.WriteString(w, tc.body)
			}))
			defer ts.Close()
			c := serve.NewClient(ts.URL)
			_, err := c.Sweep(context.Background(), serve.SweepRequest{}, nil)
			if !errors.Is(err, serve.ErrTruncatedStream) {
				t.Errorf("err = %v, want ErrTruncatedStream", err)
			}
		})
	}
}

// TestSweepAcceptsTrailedStream: a well-formed stream (all cells + trailer)
// passes the strict validation and reports the trailer verdict.
func TestSweepAcceptsTrailedStream(t *testing.T) {
	_, ts, _ := newTestServer(t, serve.Options{})
	c := serve.NewClient(ts.URL)
	events := 0
	sum, err := c.Sweep(context.Background(), serve.SweepRequest{
		Targets: []string{"opengemm"}, Workloads: []string{"matmul"},
		Pipelines: []string{"all"}, Sizes: []int{8, 16},
	}, func(serve.SweepEvent) error { events++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cells != 2 || sum.Failed != 0 || sum.Status != "ok" || events != 2 {
		t.Errorf("summary = %+v with %d events, want 2 ok cells", sum, events)
	}
}

// TestSweepWithResume: a stream cut mid-sweep resumes, every cell reaches
// fn exactly once, and the summary is the clean attempt's trailer.
func TestSweepWithResume(t *testing.T) {
	_, ts, _ := newTestServer(t, serve.Options{})
	// Truncate the first sweep response mid-stream; leave retries clean.
	plan := fault.New(11, map[fault.Site]fault.Rule{fault.TransportTruncate: {Rate: 1, Max: 1}})
	c := faultyClient(ts, plan, 0)

	seen := make(map[int]int)
	var order []int
	retries := 0
	pol := serve.RetryPolicy{MaxAttempts: 4, Sleep: instantSleep, OnRetry: func(int, time.Duration, error) { retries++ }}
	sum, err := c.SweepWithResume(context.Background(), serve.SweepRequest{
		Targets: []string{"opengemm"}, Workloads: []string{"matmul"},
		Pipelines: []string{"base", "all"}, Sizes: []int{8, 16},
	}, pol, func(ev serve.SweepEvent) error {
		seen[*ev.Index]++
		order = append(order, *ev.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cells != 4 || sum.Status != "ok" {
		t.Errorf("summary = %+v, want 4 ok cells", sum)
	}
	if retries < 1 {
		t.Error("stream was never truncated; fault did not fire")
	}
	if len(seen) != 4 {
		t.Errorf("fn saw %d distinct cells %v, want 4", len(seen), order)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("cell %d delivered %d times, want exactly once", idx, n)
		}
	}
}

// TestSweepWithResumePropagatesFnError: a caller abort is not a stream
// fault and must not be retried.
func TestSweepWithResumePropagatesFnError(t *testing.T) {
	_, ts, _ := newTestServer(t, serve.Options{})
	c := serve.NewClient(ts.URL)
	boom := errors.New("caller abort")
	retries := 0
	pol := serve.RetryPolicy{MaxAttempts: 4, Sleep: instantSleep, OnRetry: func(int, time.Duration, error) { retries++ }}
	_, err := c.SweepWithResume(context.Background(), serve.SweepRequest{
		Targets: []string{"opengemm"}, Workloads: []string{"matmul"},
		Pipelines: []string{"all"}, Sizes: []int{8},
	}, pol, func(serve.SweepEvent) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the caller's error", err)
	}
	if retries != 0 {
		t.Errorf("retries = %d, want 0 on caller abort", retries)
	}
}

// scriptedDaemon is the fake daemon of TestRetryLoopIsShared: whatever is
// asked, it answers 429 with a 30 s Retry-After, then 503, then resets the
// connection, then 200 with ok as the body. Keep-alives are off so the
// reset lands on a fresh connection, which the transport never replays by
// itself. attempts counts the requests that reached it.
func scriptedDaemon(t *testing.T, ok string) (ts *httptest.Server, attempts *atomic.Int64) {
	t.Helper()
	attempts = new(atomic.Int64)
	ts = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch attempts.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "30")
			http.Error(w, "queue full", http.StatusTooManyRequests)
		case 2:
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
		case 3:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
		default:
			io.WriteString(w, ok)
		}
	}))
	ts.Config.SetKeepAlivesEnabled(false)
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, attempts
}

// TestRetryLoopIsShared: every client call that asks the daemon again does
// it through the one loop in retry.go. The same scripted failures, under
// the same policy, cost RunRawWithRetry, SweepWithResume and Registry the
// same attempts and the same sleeps; LoadGen shares the loop but not the
// predicate — it waits out the 429 and surfaces everything else.
func TestRetryLoopIsShared(t *testing.T) {
	ctx := context.Background()
	const cell = `{"index":0,"experiment":{"target":"opengemm","workload":"matmul","pipeline":3,"n":8},"result":{}}`
	callers := []struct {
		name string
		ok   string // the 200 body the call accepts
		call func(c *serve.Client, pol serve.RetryPolicy) error
	}{
		{"RunRawWithRetry", `{}`, func(c *serve.Client, pol serve.RetryPolicy) error {
			_, err := c.RunRawWithRetry(ctx, testExp, core.RunOptions{}, pol)
			return err
		}},
		{"SweepWithResume", cell + "\n" + `{"done":true,"cells":1,"status":"ok"}` + "\n", func(c *serve.Client, pol serve.RetryPolicy) error {
			_, err := c.SweepWithResume(ctx, serve.SweepRequest{}, pol, nil)
			return err
		}},
		{"Registry", `{}`, func(c *serve.Client, pol serve.RetryPolicy) error {
			_, err := c.Registry(ctx, pol)
			return err
		}},
	}
	var want []time.Duration
	for _, tc := range callers {
		ts, attempts := scriptedDaemon(t, tc.ok)
		var sleeps []time.Duration
		pol := serve.RetryPolicy{Seed: 7, Sleep: func(_ context.Context, d time.Duration) error {
			sleeps = append(sleeps, d)
			return nil
		}}
		if err := tc.call(serve.NewClient(ts.URL), pol); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := attempts.Load(); n != 4 {
			t.Errorf("%s: %d attempts, want 4 (429, 503, reset, 200)", tc.name, n)
		}
		if len(sleeps) != 3 || sleeps[0] != 2*time.Second {
			t.Errorf("%s: sleeps %v, want 3 with the 30s hint held to the 2s cap first", tc.name, sleeps)
		}
		if want == nil {
			want = sleeps
		} else if !reflect.DeepEqual(sleeps, want) {
			t.Errorf("%s slept %v, %s slept %v: one policy, one seed, two sequences", tc.name, sleeps, callers[0].name, want)
		}
	}

	// LoadGen, three requests from one worker: the 429 is retried into the
	// 503, which is that request's outcome; the reset is the second
	// request's; the third succeeds.
	ts, attempts := scriptedDaemon(t, `{}`)
	var sleeps []time.Duration
	rep, err := serve.LoadGen(ctx, serve.NewClient(ts.URL), serve.LoadGenOptions{
		Experiments: []core.Experiment{testExp, {Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8}},
		Requests:    3,
		Clients:     1,
		Retry429:    true,
		Retry: serve.RetryPolicy{Seed: 7, Sleep: func(_ context.Context, d time.Duration) error {
			sleeps = append(sleeps, d)
			return nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := attempts.Load(); n != 4 {
		t.Errorf("LoadGen: %d attempts for 3 requests, want 4", n)
	}
	if rep.Retries != 1 || !reflect.DeepEqual(sleeps, want[:1]) {
		t.Errorf("LoadGen: %d retries, sleeps %v; want the 429 alone retried, after %v", rep.Retries, sleeps, want[:1])
	}
	wantHist := map[int]int{http.StatusServiceUnavailable: 1, 0: 1, http.StatusOK: 1}
	if rep.Errors != 2 || !reflect.DeepEqual(rep.StatusHist, wantHist) {
		t.Errorf("LoadGen: errors %d, hist %v; want 2 and %v (503 and the reset surfaced)", rep.Errors, rep.StatusHist, wantHist)
	}
}
