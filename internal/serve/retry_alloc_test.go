package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"testing"

	"configwall/internal/core"
)

// cannedTransport answers every request 200 with the same body and no
// goroutine, so what a call allocates is a function of the call alone.
type cannedTransport struct{ body []byte }

func (ct cannedTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(ct.body))}, nil
}

// allocated runs f n times and returns the bytes and objects it allocated:
// the least of five trials, since whatever else the process allocates
// meanwhile only ever adds.
func allocated(n int, f func()) (bytes, objects uint64) {
	f() // lazy one-time setup is not the call's
	for trial := 0; trial < 5; trial++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		b, o := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		if trial == 0 || b < bytes {
			bytes = b
		}
		if trial == 0 || o < objects {
			objects = o
		}
	}
	return bytes, objects
}

// TestRetryLoopIsFreeOnSuccess: a request that succeeds first time costs
// through the retry loop exactly what a bare RunRaw costs — the jitter
// source (5.3 KB) is built on the first retry, and the loop's state stays
// on the stack. The same holds for LoadGen with and without Retry429.
func TestRetryLoopIsFreeOnSuccess(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ctx := context.Background()
	c := &Client{Base: "http://daemon", HTTPClient: &http.Client{Transport: cannedTransport{body: []byte(`{}`)}}}
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 8}
	const n = 200

	bareB, bareN := allocated(n, func() { c.RunRaw(ctx, e, core.RunOptions{}) })
	loopB, loopN := allocated(n, func() { c.RunRawWithRetry(ctx, e, core.RunOptions{}, RetryPolicy{Seed: 1}) })
	if loopB != bareB || loopN != bareN {
		t.Errorf("%d first-time successes: RunRawWithRetry allocated %d B in %d objects, RunRaw %d B in %d", n, loopB, loopN, bareB, bareN)
	}

	gen := func(retry429 bool) func() {
		return func() {
			if _, err := LoadGen(ctx, c, LoadGenOptions{Experiments: []core.Experiment{e}, Requests: n, Clients: 1, Retry429: retry429}); err != nil {
				t.Fatal(err)
			}
		}
	}
	offB, offN := allocated(1, gen(false))
	onB, onN := allocated(1, gen(true))
	if onB != offB || onN != offN {
		t.Errorf("LoadGen, %d first-time successes: %d B in %d objects with Retry429, %d B in %d without", n, onB, onN, offB, offN)
	}
}
