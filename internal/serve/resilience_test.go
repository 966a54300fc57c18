package serve_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"configwall/internal/core"
	"configwall/internal/fault"
	"configwall/internal/serve"
	"configwall/internal/store"
)

// metricValue extracts one un-labeled counter/gauge from a Prometheus
// exposition.
func metricValue(t *testing.T, body, name string) string {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	t.Fatalf("metric %s not found", name)
	return ""
}

// TestHandlerPanicRecovery: an injected pre-admission panic answers 500,
// is counted, and leaves the server fully serviceable.
func TestHandlerPanicRecovery(t *testing.T) {
	plan := fault.New(1, map[fault.Site]fault.Rule{fault.ServeHandlerPanic: {Rate: 1, Max: 1}})
	_, ts, client := newTestServer(t, serve.Options{Fault: plan})

	resp, err := http.Get(ts.URL + "/v1/run?target=opengemm&workload=matmul&pipeline=all&n=8")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 from the recovered panic", resp.StatusCode)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Errorf("body = %q, want an internal-error explanation", body)
	}

	// The daemon survived: the same request now succeeds, byte-identical
	// to a fault-free answer.
	got, err := client.RunRaw(context.Background(), testExp, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, directBody(t, testExp, core.RunOptions{})) {
		t.Error("post-recovery body differs from fault-free body")
	}

	metrics, err := client.Metrics(context.Background(), serve.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, metrics, "cwserve_panics_recovered_total"); v != "1" {
		t.Errorf("cwserve_panics_recovered_total = %s, want 1", v)
	}
}

// TestRunPanicRecovery: a panic fired while an admission slot is held is
// contained by the runner's cell leader, the slot is released and the
// cell dropped, and a retry of the same cell succeeds.
func TestRunPanicRecovery(t *testing.T) {
	plan := fault.New(1, map[fault.Site]fault.Rule{fault.ServeRunPanic: {Rate: 1, Max: 1}})
	_, _, client := newTestServer(t, serve.Options{Fault: plan, Concurrency: 1})

	_, err := client.RunRaw(context.Background(), testExp, core.RunOptions{})
	se, ok := err.(*serve.StatusError)
	if !ok || se.Code != http.StatusInternalServerError || !strings.Contains(se.Body, "panic computing") {
		t.Fatalf("err = %v, want a 500 StatusError reporting the contained panic", err)
	}

	// With Concurrency 1, a leaked slot would wedge this retry forever;
	// a memoized panic would replay the poisoned error.
	got, err := client.RunRaw(context.Background(), testExp, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, directBody(t, testExp, core.RunOptions{})) {
		t.Error("post-recovery body differs from fault-free body")
	}

	metrics, err := client.Metrics(context.Background(), serve.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, metrics, "cwserve_panics_recovered_total"); v != "1" {
		t.Errorf("cwserve_panics_recovered_total = %s, want 1", v)
	}
	if v := metricValue(t, metrics, "cwserve_slots_busy"); v != "0" {
		t.Errorf("cwserve_slots_busy = %s after recovery, want 0", v)
	}
	if v := metricValue(t, metrics, "cwserve_inflight_cells"); v != "0" {
		t.Errorf("cwserve_inflight_cells = %s after recovery, want 0", v)
	}
}

// TestDegradedModeServing: a store whose saves fail must not fail
// requests — results serve from memory, /healthz says degraded, the
// counter and the OnStoreError hook report it.
func TestDegradedModeServing(t *testing.T) {
	disk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.New(1, map[fault.Site]fault.Rule{fault.StoreSaveFail: {Rate: 1}})
	var hookCalls atomic.Int64
	runner := core.NewRunnerWith(core.RunnerOptions{
		Store: &fault.Store{Inner: disk, Disk: disk, Plan: plan},
		OnStoreError: func(op string, e core.Experiment, err error) {
			if op != "save" {
				t.Errorf("OnStoreError op = %q, want save", op)
			}
			hookCalls.Add(1)
		},
	})
	_, ts, client := newTestServer(t, serve.Options{Runner: runner})

	got, err := client.RunRaw(context.Background(), testExp, core.RunOptions{})
	if err != nil {
		t.Fatalf("request failed under store faults: %v", err)
	}
	if !bytes.Equal(got, directBody(t, testExp, core.RunOptions{})) {
		t.Error("degraded-mode body differs from fault-free body")
	}
	if hookCalls.Load() != 1 {
		t.Errorf("OnStoreError called %d times, want 1", hookCalls.Load())
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(health)) != "degraded" {
		t.Errorf("healthz = %d %q, want 200 degraded", resp.StatusCode, health)
	}

	metrics, err := client.Metrics(context.Background(), serve.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, metrics, "cwserve_store_errors_total"); v != "1" {
		t.Errorf("cwserve_store_errors_total = %s, want 1", v)
	}
	if n, err := disk.Len(); err != nil || n != 0 {
		t.Errorf("store has %d entries (err %v), want 0 — every save was injected to fail", n, err)
	}
}

// TestLoadGenRetry429: under backpressure the load generator honors
// Retry-After (capped) and re-sends instead of counting an error; with
// the retry disabled the same 429 counts as an error.
func TestLoadGenRetry429(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	// First request for each distinct query gets a 429 with a huge
	// Retry-After hint (the cap must tame it); repeats succeed.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.RawQuery]++
		n := seen[r.URL.RawQuery]
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "30")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		io.WriteString(w, `{"target":"t"}`)
	}))
	defer ts.Close()

	opts := serve.LoadGenOptions{
		Experiments: []core.Experiment{testExp, {Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8}},
		Requests:    6,
		Clients:     1,
		Retry429:    true,
		Retry:       serve.RetryPolicy{MaxAttempts: 3, MaxDelay: 5 * time.Millisecond},
	}
	start := time.Now()
	rep, err := serve.LoadGen(context.Background(), serve.NewClient(ts.URL), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d, want 0 — 429s must be retried, not counted", rep.Errors)
	}
	if rep.Retries < 1 {
		t.Error("no backpressure retries recorded")
	}
	if rep.StatusHist[http.StatusTooManyRequests] != 0 {
		t.Errorf("429s in the final histogram: %v", rep.StatusHist)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("run took %v — the 30s Retry-After hint was not capped", elapsed)
	}
	if !strings.Contains(rep.String(), "backpressure retries") {
		t.Error("report does not mention backpressure retries")
	}

	// Same traffic without the retry: the first-per-cell 429s are errors.
	mu.Lock()
	seen = map[string]int{}
	mu.Unlock()
	opts.Retry429 = false
	rep, err = serve.LoadGen(context.Background(), serve.NewClient(ts.URL), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors == 0 || rep.StatusHist[http.StatusTooManyRequests] == 0 {
		t.Errorf("without Retry429: errors = %d, hist = %v — want the 429s surfaced", rep.Errors, rep.StatusHist)
	}
	if rep.Retries != 0 {
		t.Errorf("retries = %d with Retry429 off, want 0", rep.Retries)
	}
}
