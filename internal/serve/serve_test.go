package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"configwall/internal/core"
	"configwall/internal/serve"
	"configwall/internal/sim"
	"configwall/internal/store"
)

var testExp = core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 8}

// slowStore delays every Load and then misses, so concurrent requests for
// one cell genuinely overlap inside the serving stack; Save is dropped.
type slowStore struct {
	delay time.Duration

	mu    sync.Mutex
	loads int
}

func (s *slowStore) Load(core.Experiment, core.RunOptions) (core.Result, bool, error) {
	time.Sleep(s.delay)
	s.mu.Lock()
	s.loads++
	s.mu.Unlock()
	return core.Result{}, false, nil
}

func (s *slowStore) Save(core.Experiment, core.RunOptions, core.Result) error { return nil }

func (s *slowStore) Loads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads
}

// newTestServer builds a Server on a fresh runner and mounts it on an
// httptest listener.
func newTestServer(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server, *serve.Client) {
	t.Helper()
	if opts.Runner == nil {
		opts.Runner = core.NewRunner(0)
	}
	sv, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv)
	t.Cleanup(func() {
		ts.Close()
		sv.Close()
	})
	return sv, ts, serve.NewClient(ts.URL)
}

// directBody computes the expected /v1/run response body: exactly
// json.Marshal of a direct Runner.Run result on a private runner.
func directBody(t *testing.T, e core.Experiment, opts core.RunOptions) []byte {
	t.Helper()
	res, err := core.NewRunner(0).Run(context.Background(), e, opts)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRunByteIdentical asserts the serving contract: GET and POST /v1/run
// bodies are byte-identical to json.Marshal of a direct Runner.Run result.
func TestRunByteIdentical(t *testing.T) {
	_, ts, c := newTestServer(t, serve.Options{})
	opts := core.RunOptions{}
	want := directBody(t, testExp, opts)

	got, err := c.RunRaw(context.Background(), testExp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("GET body differs from direct Runner.Run marshal:\n got %s\nwant %s", got, want)
	}
	// A served cell carries no timeline: no request can ask for one, and
	// the body has no Trace key at all.
	var res core.Result
	if err := json.Unmarshal(got, &res); err != nil || res.Trace != nil || bytes.Contains(got, []byte(`"Trace"`)) {
		t.Errorf("served body has a timeline (err %v): %.200s", err, got)
	}
	// Nor a compile log: a cell's Result is its measurements.
	if bytes.Contains(got, []byte(`"PassStats"`)) {
		t.Errorf("served body has a compile log: %.200s", got)
	}

	// POST with the equivalent JSON body must serve the identical bytes.
	rq := serve.RunRequest{Target: testExp.Target, Workload: testExp.Workload, Pipeline: testExp.Pipeline.String(), N: testExp.N}
	buf, _ := json.Marshal(rq)
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	posted, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d: %s", resp.StatusCode, posted)
	}
	if !bytes.Equal(posted, want) {
		t.Errorf("POST body differs from direct Runner.Run marshal")
	}

	// A sweep event carries the same Result, and no compile log either.
	sweep, _ := json.Marshal(serve.SweepRequest{Targets: []string{testExp.Target}, Workloads: []string{testExp.Workload},
		Pipelines: []string{testExp.Pipeline.String()}, Sizes: []int{testExp.N}})
	resp, err = http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stream, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(stream, want) || bytes.Contains(stream, []byte(`"PassStats"`)) {
		t.Errorf("sweep event (status %d) does not carry the served body alone: %.300s", resp.StatusCode, stream)
	}
}

// TestCachedFastPath: a repeat request for a completed cell takes the Peek
// fast path — no new simulation, one memory hit, and a response body
// byte-identical to the first answer (clients cannot tell the paths apart).
func TestCachedFastPath(t *testing.T) {
	sv, _, c := newTestServer(t, serve.Options{})
	first, err := c.RunRaw(context.Background(), testExp, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := sv.Runner().Snapshot()

	second, err := c.RunRaw(context.Background(), testExp, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached response differs from cold response:\ncold   %s\ncached %s", first, second)
	}
	after := sv.Runner().Snapshot()
	if after.Runs != before.Runs {
		t.Errorf("repeat request ran %d new simulations, want 0", after.Runs-before.Runs)
	}
	if after.MemHits != before.MemHits+1 {
		t.Errorf("MemHits went %d -> %d, want one memory hit for the cached answer", before.MemHits, after.MemHits)
	}
}

// TestCoalescing fires 64 concurrent identical requests against a server
// whose store is slow, so they all overlap in flight; exactly one
// simulation (and one store load) may happen, and every response must be
// byte-identical.
func TestCoalescing(t *testing.T) {
	st := &slowStore{delay: 100 * time.Millisecond}
	runner := core.NewRunnerWith(core.RunnerOptions{Workers: 4, Store: st})
	sv, _, c := newTestServer(t, serve.Options{Runner: runner, Concurrency: 2})

	const clients = 64
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], errs[i] = c.RunRaw(context.Background(), testExp, core.RunOptions{})
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	if !bytes.Equal(bodies[0], directBody(t, testExp, core.RunOptions{})) {
		t.Error("coalesced responses differ from direct Runner.Run marshal")
	}
	stats := sv.Runner().Snapshot()
	if stats.Runs != 1 {
		t.Errorf("Runs = %d, want exactly 1 simulation for 64 concurrent identical requests", stats.Runs)
	}
	if got := st.Loads(); got != 1 {
		t.Errorf("store loads = %d, want 1 (coalescing must also collapse store traffic)", got)
	}
}

// TestConcurrentClientsCoalesce: several clients, each with its own retry
// stream, walking the same list of distinct cells at once cost exactly one
// simulation per distinct cell, and every client gets the canonical body of
// every cell. Under -race this drives the whole client/server path.
func TestConcurrentClientsCoalesce(t *testing.T) {
	st := &slowStore{delay: 10 * time.Millisecond}
	runner := core.NewRunnerWith(core.RunnerOptions{Workers: 4, Store: st})
	sv, ts, _ := newTestServer(t, serve.Options{Runner: runner})

	cells := core.Sweep([]string{"gemmini", "opengemm"}, []string{core.WorkloadMatmul}, core.Pipelines, []int{16, 32})
	want, err := serve.CanonicalBodies(context.Background(), cells, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 4
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := serve.NewClient(ts.URL)
			pol := serve.RetryPolicy{Seed: int64(w)}
			// Each client starts at its own offset, so distinct cells are
			// in flight together and every cell is asked for by all.
			for i := range cells {
				e := cells[(i+w*len(cells)/clients)%len(cells)]
				body, err := c.RunRawWithRetry(context.Background(), e, core.RunOptions{}, pol)
				if err != nil {
					errs[w] = err
					return
				}
				if !bytes.Equal(body, want[core.FingerprintKey(e, core.RunOptions{})]) {
					errs[w] = fmt.Errorf("%s: body differs from the canonical body", e)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", w, err)
		}
	}
	if got := sv.Runner().Snapshot().Runs; got != uint64(len(cells)) {
		t.Errorf("Runs = %d for %d clients over %d distinct cells, want one simulation per cell", got, clients, len(cells))
	}
}

// TestValidation rejects malformed requests with 400 and a message that
// lists the valid names.
func TestValidation(t *testing.T) {
	sv, ts, _ := newTestServer(t, serve.Options{})
	const valid = `{"target":"opengemm","workload":"matmul","pipeline":"all","n":8}`
	cases := []struct {
		name, query, want string
		post              string // a POST body, in place of the GET query
	}{
		{name: "unknown target", query: "target=tpu&workload=matmul&pipeline=all&n=8", want: "unknown target"},
		{name: "missing target", query: "workload=matmul&pipeline=all&n=8", want: "registered"},
		{name: "unknown workload", query: "target=opengemm&workload=conv&pipeline=all&n=8", want: "unknown workload"},
		{name: "unknown pipeline", query: "target=opengemm&workload=matmul&pipeline=turbo&n=8", want: "unknown pipeline"},
		{name: "unknown engine", query: "target=opengemm&workload=matmul&pipeline=all&n=8&engine=warp", want: "valid engines"},
		{name: "bad n", query: "target=opengemm&workload=matmul&pipeline=all&n=0", want: "positive sweep size"},
		{name: "unknown query key", query: "target=opengemm&workload=matmul&pipeline=all&n=8&skip_verify=true", want: "valid: target, workload, pipeline, n, engine)"},
		{name: "retired skipverify key", query: "target=opengemm&workload=matmul&pipeline=all&n=8&skipverify=1", want: "valid: target, workload, pipeline, n, engine)"},
		{name: "retired skip_verify field", post: valid[:len(valid)-1] + `,"skip_verify":true}`, want: `"skip_verify"`},
		// A timeline is not part of a cell's name: neither spelling of the
		// retired trace option is accepted.
		{name: "retired trace key", query: "target=opengemm&workload=matmul&pipeline=all&n=8&trace=true", want: `unknown query parameter "trace" (valid: target, workload, pipeline, n, engine)`},
		{name: "retired false trace key", query: "target=opengemm&workload=matmul&pipeline=all&n=8&trace=false", want: `unknown query parameter "trace"`},
		{name: "retired record_trace field", post: valid[:len(valid)-1] + `,"record_trace":true}`, want: `unknown field "record_trace"`},
		{name: "oversized body", post: `{"target":"` + strings.Repeat("x", 2<<20) + `"}`, want: "too large"},
		{name: "second value", post: valid + `{}`, want: "after the request value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.post != "" {
				resp, err = http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.post))
			} else {
				resp, err = http.Get(ts.URL + "/v1/run?" + tc.query)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %.200s)", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Errorf("body %.200q does not mention %q", body, tc.want)
			}
		})
	}
	if runs := sv.Runner().Snapshot().Runs; runs != 0 {
		t.Errorf("rejected requests dispatched %d cells", runs)
	}
}

// TestBackpressure asserts the admission queue sheds load as 429 instead
// of queuing without bound: with one slot and no queue, concurrent
// distinct-cell requests beyond the slot are rejected immediately.
func TestBackpressure(t *testing.T) {
	st := &slowStore{delay: 300 * time.Millisecond}
	runner := core.NewRunnerWith(core.RunnerOptions{Workers: 4, Store: st})
	_, ts, c := newTestServer(t, serve.Options{Runner: runner, Concurrency: 1, QueueDepth: -1})

	const clients = 4
	codes := make([]int, clients)
	retryAfter := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := testExp
			e.N = 8 * (i + 1) // distinct cells: coalescing must not absorb them
			_, err := c.RunRaw(context.Background(), e, core.RunOptions{})
			codes[i] = http.StatusOK
			if err != nil {
				if se, ok := err.(*serve.StatusError); ok {
					codes[i] = se.Code
					retryAfter[i] = se.RetryAfter
				} else {
					codes[i] = -1
				}
			}
		}(i)
	}
	wg.Wait()

	ok, rejected := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
			// Every 429 carries a positive, bounded Retry-After derived from
			// the live queue state — never zero, never past the queue timeout.
			if retryAfter[i] < 1 || retryAfter[i] > 30 {
				t.Errorf("request %d: Retry-After %d outside [1, queue timeout]", i, retryAfter[i])
			}
		default:
			t.Fatalf("request %d: unexpected status %d", i, code)
		}
	}
	if ok < 1 || rejected < 1 {
		t.Errorf("got %d ok / %d rejected, want at least one of each", ok, rejected)
	}
	// The rejection must surface in /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(metrics), "cwserve_rejected_total") {
		t.Error("metrics do not export cwserve_rejected_total")
	}
}

// TestQueueTimeout asserts a queued request 429s once the queue wait
// exceeds the configured timeout.
func TestQueueTimeout(t *testing.T) {
	st := &slowStore{delay: 500 * time.Millisecond}
	runner := core.NewRunnerWith(core.RunnerOptions{Workers: 4, Store: st})
	_, _, c := newTestServer(t, serve.Options{
		Runner: runner, Concurrency: 1, QueueDepth: 4, QueueTimeout: 30 * time.Millisecond,
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.RunRaw(context.Background(), testExp, core.RunOptions{}) // occupies the slot
	}()
	time.Sleep(100 * time.Millisecond) // let the first request take the slot

	other := testExp
	other.N = 16
	_, err := c.RunRaw(context.Background(), other, core.RunOptions{})
	se, ok := err.(*serve.StatusError)
	if !ok || se.Code != http.StatusTooManyRequests {
		t.Errorf("queued request returned %v, want a 429 StatusError", err)
	}
	if ok && !strings.Contains(se.Body, "timed out") {
		t.Errorf("429 body %q does not mention the queue timeout", se.Body)
	}
	// With a 30ms queue timeout the derived hint clamps to its 1s floor
	// and its ceil(timeout) ceiling simultaneously: exactly 1.
	if ok && se.RetryAfter != 1 {
		t.Errorf("Retry-After = %d, want 1 (clamped to the 30ms queue timeout)", se.RetryAfter)
	}
	wg.Wait()
}

// TestSweepStream runs a small grid through the NDJSON streaming endpoint
// and checks every cell arrives exactly once with results identical to
// direct execution, then the summary line, and /metrics counts the cells.
func TestSweepStream(t *testing.T) {
	_, ts, c := newTestServer(t, serve.Options{})
	rq := serve.SweepRequest{
		Targets:   []string{"opengemm"},
		Workloads: []string{core.WorkloadMatmul},
		Pipelines: []string{"base", "all"},
		Sizes:     []int{8, 16},
	}

	seen := map[int]core.Result{}
	summary, err := c.Sweep(context.Background(), rq, func(ev serve.SweepEvent) error {
		if ev.Error != "" {
			return fmt.Errorf("cell %v failed: %s", ev.Index, ev.Error)
		}
		if ev.Index == nil || ev.Result == nil || ev.Experiment == nil {
			return fmt.Errorf("malformed event %+v", ev)
		}
		if _, dup := seen[*ev.Index]; dup {
			return fmt.Errorf("index %d delivered twice", *ev.Index)
		}
		if ev.Result.Trace != nil {
			return fmt.Errorf("cell %d streamed a timeline of %d segments", *ev.Index, len(ev.Result.Trace))
		}
		seen[*ev.Index] = *ev.Result
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if summary.Cells != 4 || summary.Failed != 0 {
		t.Fatalf("summary = %+v, want 4 cells, 0 failed", summary)
	}
	if len(seen) != 4 {
		t.Fatalf("got %d events, want 4", len(seen))
	}
	text, err := c.Metrics(context.Background(), serve.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "\ncwserve_sweep_cells_total 4\n") {
		t.Errorf("metrics missing the sweep-cell counter:\n%s", text)
	}

	// The stream's events carry no Trace key.
	buf, _ := json.Marshal(rq)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stream, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || bytes.Contains(stream, []byte(`"Trace"`)) {
		t.Errorf("sweep stream (status %d) has a Trace key: %.300s", resp.StatusCode, stream)
	}

	pipes := []core.Pipeline{core.Baseline, core.AllOptimizations}
	exps := core.Sweep(rq.Targets, rq.Workloads, pipes, rq.Sizes)
	direct, err := core.NewRunner(0).RunAll(context.Background(), exps, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range direct {
		if !reflect.DeepEqual(seen[i], want) {
			t.Errorf("cell %d (%s): streamed result differs from direct RunAll", i, exps[i])
		}
	}
}

// TestSweepValidation covers grid-level rejections: empty axes, unknown
// names and the sweep-size cap.
func TestSweepValidation(t *testing.T) {
	sv, ts, _ := newTestServer(t, serve.Options{MaxSweepCells: 2})
	post := func(rq serve.SweepRequest) (int, string) {
		buf, _ := json.Marshal(rq)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := post(serve.SweepRequest{}); code != http.StatusBadRequest || !strings.Contains(body, "registered targets") {
		t.Errorf("empty sweep: %d %q", code, body)
	}
	big := serve.SweepRequest{
		Targets: []string{"opengemm"}, Workloads: []string{core.WorkloadMatmul},
		Pipelines: []string{"base", "all"}, Sizes: []int{8, 12},
	}
	if code, body := post(big); code != http.StatusBadRequest || !strings.Contains(body, "above the server cap") {
		t.Errorf("over-cap sweep: %d %q", code, body)
	}

	// Bodies the decoder refuses before anything is resolved. A field the
	// request does not have is refused by name, not ignored: a client still
	// sending the retired "stream" switch, the retired prediction tier's
	// "fidelity" and "top_k", "skip_verify" (every cell is verified) or
	// "record_trace" (no sweep records a timeline), learns why. A body above the 1 MiB
	// bound is not read to its end, and a second JSON value is not silently
	// dropped.
	const valid = `{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base"],"sizes":[8]}`
	for _, tc := range []struct{ name, body, want string }{
		{"unknown field", valid[:len(valid)-1] + `,"stream":false}`, `"stream"`},
		{"fidelity", valid[:len(valid)-1] + `,"fidelity":"screen"}`, `"fidelity"`},
		{"top_k", valid[:len(valid)-1] + `,"top_k":2}`, `"top_k"`},
		{"skip_verify", valid[:len(valid)-1] + `,"skip_verify":true}`, `"skip_verify"`},
		{"record_trace", valid[:len(valid)-1] + `,"record_trace":true}`, `unknown field "record_trace"`},
		{"oversized body", `{"targets":["` + strings.Repeat("x", 2<<20) + `"]}`, "too large"},
		{"second value", valid + `{}`, "after the request value"},
	} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: %d %q, want a 400 mentioning %s", tc.name, resp.StatusCode, body, tc.want)
		}
	}
	if runs := sv.Runner().Snapshot().Runs; runs != 0 {
		t.Errorf("rejected sweeps dispatched %d cells", runs)
	}
}

// TestRegistry checks the discovery endpoint lists the built-in names.
func TestRegistry(t *testing.T) {
	_, ts, c := newTestServer(t, serve.Options{})
	info, err := c.Registry(context.Background(), serve.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(info.Targets, "gemmini") || !contains(info.Targets, "opengemm") {
		t.Errorf("targets = %v, want gemmini and opengemm", info.Targets)
	}
	if !contains(info.Workloads, core.WorkloadMatmul) {
		t.Errorf("workloads = %v, want %s", info.Workloads, core.WorkloadMatmul)
	}
	if !contains(info.Engines, "ref") || !contains(info.Engines, "fast") {
		t.Errorf("engines = %v, want ref and fast", info.Engines)
	}
	if !contains(info.Pipelines, "base") || !contains(info.Pipelines, "all") {
		t.Errorf("pipelines = %v, want base and all", info.Pipelines)
	}
	if info.MaxN <= 0 || info.MaxSweepCells <= 0 {
		t.Errorf("caps not reported: max_n=%d max_sweep_cells=%d", info.MaxN, info.MaxSweepCells)
	}
	// The wire carries exactly these keys: a field no client reads is not
	// sent.
	resp, err := http.Get(ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(wire))
	if want := []string{"engines", "max_n", "max_sweep_cells", "pipelines", "targets", "workloads"}; !slices.Equal(keys, want) {
		t.Errorf("/v1/registry keys = %v, want %v", keys, want)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestMetrics checks the exposition contains the cache counters, gauges
// and latency histogram after traffic.
func TestMetrics(t *testing.T) {
	_, _, c := newTestServer(t, serve.Options{})
	if _, err := c.RunRaw(context.Background(), testExp, core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(context.Background(), serve.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"cwserve_cache_runs_total 1",
		"cwserve_cache_mem_hits_total",
		"cwserve_cache_evictions_total",
		// The one cell launched once, on a fresh launch memo.
		"cwserve_cache_launch_hits_total 0",
		"cwserve_cache_launch_misses_total 1",
		// The one cell built its instance: nothing of its family ran before.
		"cwserve_cache_family_hits_total 0",
		"cwserve_cache_family_misses_total 1",
		"cwserve_cache_family_tail_hits_total 0",
		`cwserve_requests_total{endpoint="run",code="200"} 1`,
		"cwserve_queue_depth 0",
		"cwserve_slots_busy 0",
		`cwserve_latency_seconds_bucket{endpoint="run",le="+Inf"} 1`,
		`cwserve_latency_seconds_count{endpoint="run"} 1`,
		// Runtime memory gauges carry live values; assert presence only.
		"cwserve_go_heap_alloc_bytes ",
		"cwserve_go_heap_objects ",
		"cwserve_go_gc_pause_seconds_total ",
		"cwserve_go_gc_cycles_total ",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q", series)
		}
	}

	// On Gemmini dedup and all reach their lowering with one module: the
	// second served takes the first's tail.
	for _, p := range []core.Pipeline{core.DedupOnly, core.AllOptimizations} {
		if _, err := c.RunRaw(context.Background(), core.Experiment{Target: "gemmini", Workload: core.WorkloadMatmul, Pipeline: p, N: 16}, core.RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if text, err = c.Metrics(context.Background(), serve.RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "cwserve_cache_family_tail_hits_total 1\n") {
		t.Errorf("after gemmini dedup then all: metrics lack cwserve_cache_family_tail_hits_total 1")
	}
}

// TestHealthzAndDrain checks the health endpoint flips to 503 on drain
// and experiment endpoints reject new work while draining.
func TestHealthzAndDrain(t *testing.T) {
	sv, ts, c := newTestServer(t, serve.Options{})
	if _, err := c.Healthz(context.Background(), serve.RetryPolicy{Sleep: instantSleep}); err != nil {
		t.Fatalf("healthz before drain: %v", err)
	}
	sv.BeginDrain()
	_, err := c.Healthz(context.Background(), serve.RetryPolicy{Sleep: instantSleep})
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %v, want 503", err)
	}
	resp, err := http.Get(ts.URL + "/v1/run?target=opengemm&workload=matmul&pipeline=all&n=8")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("run during drain = %d, want 503", resp.StatusCode)
	}
}

// gateStore holds every Load until release is closed, and always misses.
type gateStore struct{ entered, release chan struct{} }

func (g gateStore) Load(core.Experiment, core.RunOptions) (core.Result, bool, error) {
	g.entered <- struct{}{}
	<-g.release
	return core.Result{}, false, nil
}

func (gateStore) Save(core.Experiment, core.RunOptions, core.Result) error { return nil }

// TestServeListenerAndDrain: Serve answers on the listener it is given, and
// the function it returns is the whole drain — it waits for a request that
// is in flight, that request still gets its answer, and afterwards nothing
// listens.
func TestServeListenerAndDrain(t *testing.T) {
	gate := gateStore{entered: make(chan struct{}), release: make(chan struct{})}
	sv, err := serve.New(serve.Options{Runner: core.NewRunnerWith(core.RunnerOptions{Store: gate})})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shutdown := sv.Serve(ln)
	c := serve.NewClient("http://" + ln.Addr().String())
	if _, err := c.Healthz(context.Background(), serve.RetryPolicy{Sleep: instantSleep}); err != nil {
		t.Fatalf("healthz on the served listener: %v", err)
	}

	inFlight := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), testExp, core.RunOptions{})
		inFlight <- err
	}()
	<-gate.entered
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- shutdown(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("shutdown returned (%v) with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate.release)
	if err := <-drained; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if err := <-inFlight; err != nil {
		t.Errorf("request in flight at shutdown: %v", err)
	}
	if _, err := c.Healthz(context.Background(), serve.RetryPolicy{Sleep: instantSleep}); err == nil {
		t.Error("healthz answered after shutdown")
	}
}

// TestRunWithoutEngineIsDefaultCell: a request that names no engine is the
// cell zero-value RunOptions names, so it is answered from the memo a
// direct Runner.Run(…, RunOptions{}) filled — the daemon and the library
// agree on the default engine.
func TestRunWithoutEngineIsDefaultCell(t *testing.T) {
	runner := core.NewRunner(0)
	if _, err := runner.Run(context.Background(), testExp, core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, serve.Options{Runner: runner})
	url := fmt.Sprintf("%s/v1/run?target=%s&workload=%s&pipeline=%s&n=%d", ts.URL, testExp.Target, testExp.Workload, testExp.Pipeline, testExp.N)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if stats := runner.Snapshot(); stats.Runs != 1 || stats.MemHits != 1 {
		t.Errorf("after Run + engine-less GET: %s; want 1 run and 1 memory hit", stats)
	}
}

// TestRebootLoadsOnDemand boots a server over a store another runner
// populated: boot reads nothing, so the runner starts empty even when the
// store holds more cells than its LRU bound, and each stored cell is then
// answered on its first request as a store hit, without any simulation.
func TestRebootLoadsOnDemand(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	exps := []core.Experiment{
		testExp,
		{Target: "gemmini", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 16},
		{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 16},
	}
	opts := core.RunOptions{Engine: sim.EngineRef}
	first := core.NewRunnerWith(core.RunnerOptions{Store: st})
	want, err := first.RunAll(context.Background(), exps, opts)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh store handle (fresh process, in spirit) backs the server.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunnerWith(core.RunnerOptions{Store: st2, MaxCells: len(exps) - 1})
	sv, _, c := newTestServer(t, serve.Options{Runner: runner})
	if s, n := runner.Snapshot(), runner.CacheSize(); s != (core.CacheStats{}) || n != 0 {
		t.Fatalf("after boot: %+v with %d cells in memory, want nothing", s, n)
	}
	for i, e := range exps {
		body, err := c.RunRaw(context.Background(), e, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantBody, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(wantBody) {
			t.Errorf("%s: body differs from the first runner's result", e)
		}
	}
	if s := sv.Runner().Snapshot(); s.Runs != 0 || int(s.StoreHits) != len(exps) || s.Evictions != 1 {
		t.Errorf("after one request per stored cell: %+v, want 0 runs, %d store hits, 1 eviction", s, len(exps))
	}
}

// TestAcceptanceLoadGen is the PR's acceptance criterion: ≥10k requests
// of a zipf-skewed (≥90% repeat) mix complete with zero duplicate
// simulator runs for concurrently in-flight identical experiments, every
// response byte-identical to a direct Runner.Run result, and the server
// drains cleanly with no goroutine leaks.
func TestAcceptanceLoadGen(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-request acceptance run skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	runner := core.NewRunner(0)
	sv, err := serve.New(serve.Options{Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv)
	c := serve.NewClient(ts.URL)

	// 8 distinct cells; 10k zipf-drawn requests repeat them >99% of the
	// time, exactly the overlapping-query traffic of a search client.
	universe := core.Sweep(
		[]string{"opengemm", "gemmini"},
		[]string{core.WorkloadMatmul},
		[]core.Pipeline{core.Baseline, core.AllOptimizations},
		[]int{16, 32},
	)
	rep, err := serve.LoadGen(context.Background(), c, serve.LoadGenOptions{
		Experiments: universe,
		Requests:    10000,
		Clients:     16,
		ZipfS:       1.4,
		Seed:        1,
		Verify:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.String())
	if rep.Errors != 0 {
		t.Errorf("loadgen errors = %d, want 0 (status histogram: %v)", rep.Errors, rep.StatusHist)
	}
	if rep.Mismatched != 0 {
		t.Errorf("byte-identity mismatches = %d, want 0", rep.Mismatched)
	}

	// Zero duplicate simulations: every distinct cell ran exactly once.
	stats := runner.Snapshot()
	if stats.Runs != uint64(rep.Distinct) {
		t.Errorf("Runs = %d for %d distinct cells — duplicate simulations happened", stats.Runs, rep.Distinct)
	}

	// Full byte-identity against direct execution for every cell.
	opts := core.RunOptions{}
	canonical, err := serve.CanonicalBodies(context.Background(), universe, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range universe {
		body, err := c.RunRaw(context.Background(), e, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := canonical[core.FingerprintKey(e, opts)]; !bytes.Equal(body, want) {
			t.Errorf("%s: served body differs from direct Runner.Run marshal", e)
		}
	}

	// Clean drain: no goroutine may outlive the server.
	sv.BeginDrain()
	ts.Close()
	sv.Close()
	c.HTTPClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline+2 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines leaked: %d now vs %d at start\n%s", g, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestCloseUnblocksQueuedRequest: Close ends a wait for an admission slot
// — the queued request answers 503 instead of riding out the queue
// timeout — while the admitted cell still computes to completion.
func TestCloseUnblocksQueuedRequest(t *testing.T) {
	st := &slowStore{delay: 300 * time.Millisecond}
	runner := core.NewRunnerWith(core.RunnerOptions{Workers: 4, Store: st})
	sv, _, c := newTestServer(t, serve.Options{Runner: runner, Concurrency: 1})

	occupied := make(chan error, 1)
	go func() {
		_, err := c.RunRaw(context.Background(), testExp, core.RunOptions{})
		occupied <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the first request take the slot

	queued := make(chan error, 1)
	go func() {
		other := testExp
		other.N = 16
		_, err := c.RunRaw(context.Background(), other, core.RunOptions{})
		queued <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the second request queue
	sv.Close()

	se, ok := (<-queued).(*serve.StatusError)
	if !ok || se.Code != http.StatusServiceUnavailable {
		t.Errorf("queued request at Close: %v, want a 503 StatusError", se)
	}
	if err := <-occupied; err != nil {
		t.Errorf("admitted request at Close: %v, want it to complete", err)
	}
}

// TestSweepCapBeforeExpansion: the cell cap is checked on the grid's
// product before the grid is built. A 1 171-byte body — 40 copies each of a
// target, a workload, a pipeline and a size, 2.56M cells — used to allocate
// 122.9 MB in core.Sweep before its 400; it must now cost well under 1 MB.
func TestSweepCapBeforeExpansion(t *testing.T) {
	sv, err := serve.New(serve.Options{Runner: core.NewRunner(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	repeat := func(v string) string { return strings.TrimSuffix(strings.Repeat(v+",", 40), ",") }
	body := `{"targets":[` + repeat(`"gemmini"`) + `],"workloads":[` + repeat(`"matmul"`) +
		`],"pipelines":[` + repeat(`"all"`) + `],"sizes":[` + repeat("16") + `]}`
	if len(body) != 1171 {
		t.Fatalf("body is %d bytes, want the 1 171 of the report", len(body))
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sv.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "40×40×40×40 cells, above the server cap of 4096") {
		t.Fatalf("got %d %q, want a 400 naming the 40×40×40×40 grid and the cap", rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("rejecting the sweep allocated %d bytes, want < 1 MB", alloc)
	}
}

// TestMaxNCap rejects huge-n requests up front: a claimed cell always
// computes to completion, so admission-time is the only place to stop an
// O(n^3) simulation from wedging a slot for hours.
func TestMaxNCap(t *testing.T) {
	_, ts, _ := newTestServer(t, serve.Options{MaxN: 64})
	resp, err := http.Get(ts.URL + "/v1/run?target=opengemm&workload=matmul&pipeline=all&n=128")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "above the server cap") {
		t.Errorf("n over cap: %d %q, want 400 naming the cap", resp.StatusCode, body)
	}

	big, _ := json.Marshal(serve.SweepRequest{
		Targets: []string{"opengemm"}, Workloads: []string{core.WorkloadMatmul},
		Pipelines: []string{"base"}, Sizes: []int{128},
	})
	sresp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sbody, _ := io.ReadAll(sresp.Body)
	if sresp.StatusCode != http.StatusBadRequest || !strings.Contains(string(sbody), "above the server cap") {
		t.Errorf("sweep size over cap: %d %q, want 400 naming the cap", sresp.StatusCode, sbody)
	}
}

// TestPanicContainment: a cell whose build panics must produce a 500 for
// that request — never take down the daemon — every time it is asked for:
// with one slot, a panicked cell left claimed (or its slot left held)
// would hang the second request and starve the healthy cell behind it.
func TestPanicContainment(t *testing.T) {
	registerPanicky(t)
	_, ts, c := newTestServer(t, serve.Options{Concurrency: 1})
	hc := &http.Client{Timeout: 2 * time.Second}
	for i := 0; i < 3; i++ {
		resp, err := hc.Get(ts.URL + "/v1/run?target=opengemm&workload=panicky&pipeline=base&n=8")
		if err != nil {
			t.Fatalf("request %d for the panicking cell: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "panic computing") {
			t.Errorf("panicking cell, request %d: %d %q, want 500 mentioning the panic", i, resp.StatusCode, body)
		}
	}
	// The daemon survived and still serves healthy cells.
	if _, err := c.RunRaw(context.Background(), testExp, core.RunOptions{}); err != nil {
		t.Errorf("healthy cell after a panicking one: %v", err)
	}
	metrics, err := c.Metrics(context.Background(), serve.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, gauge := range []string{"cwserve_slots_busy", "cwserve_inflight_cells", "cwserve_queue_depth"} {
		if v := metricValue(t, metrics, gauge); v != "0" {
			t.Errorf("%s = %s after the panics, want 0", gauge, v)
		}
	}
}

var panickyOnce sync.Once

// registerPanicky registers (once; the registry is global) a workload
// whose Build panics.
func registerPanicky(t *testing.T) {
	t.Helper()
	panickyOnce.Do(func() {
		err := core.RegisterWorkload(core.Workload{
			Name:        "panicky",
			Description: "test workload whose build panics",
			Build:       func(core.Target, int) (core.Instance, error) { panic("kaboom") },
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestSweepSurvivesRequestModeRejection: a sweep cell that coalesces onto
// a /v1/run cell leader shed by admission control must not inherit the
// 429 — batch cells wait for slots, so the sweep cell re-claims the cell,
// leads it with batch semantics and completes.
func TestSweepSurvivesRequestModeRejection(t *testing.T) {
	st := &slowStore{delay: 400 * time.Millisecond}
	runner := core.NewRunnerWith(core.RunnerOptions{Workers: 4, Store: st})
	_, _, c := newTestServer(t, serve.Options{
		Runner: runner, Concurrency: 1, QueueDepth: 4, QueueTimeout: 50 * time.Millisecond,
	})

	// Cell A occupies the single slot for ~400ms.
	occupied := make(chan struct{})
	go func() {
		defer close(occupied)
		c.RunRaw(context.Background(), testExp, core.RunOptions{})
	}()
	time.Sleep(100 * time.Millisecond)

	// Cell X: a request-mode GET races a sweep containing the same cell.
	// Whichever leads, the sweep must stream X successfully — the GET may
	// legitimately 429, the sweep may not.
	x := testExp
	x.N = 16
	getDone := make(chan error, 1)
	go func() {
		_, err := c.RunRaw(context.Background(), x, core.RunOptions{})
		getDone <- err
	}()
	summary, err := c.Sweep(context.Background(), serve.SweepRequest{
		Targets: []string{x.Target}, Workloads: []string{x.Workload},
		Pipelines: []string{"all"}, Sizes: []int{x.N},
	}, func(ev serve.SweepEvent) error {
		if ev.Error != "" {
			return fmt.Errorf("sweep cell failed: %s", ev.Error)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if summary.Failed != 0 || summary.Cells != 1 {
		t.Fatalf("summary = %+v, want 1 cell, 0 failed", summary)
	}
	if err := <-getDone; err != nil {
		if se, ok := err.(*serve.StatusError); !ok || se.Code != http.StatusTooManyRequests {
			t.Errorf("concurrent GET: %v, want success or a 429", err)
		}
	}
	<-occupied
}
