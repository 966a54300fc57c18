package serve

// Gates for the pooled response path. The cached /v1/run fast path is one
// runner map lookup plus writeJSON; these tests pin (a) that writeJSON's
// body is byte-identical to the json.Marshal bodies it replaced, and
// (b) that its steady state allocates nothing.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"configwall/internal/core"
	"configwall/internal/sim"
)

// memResponseWriter is a reusable ResponseWriter: the header map and body
// capacity survive across requests, mirroring what net/http gives a handler
// from its own connection-scoped state.
type memResponseWriter struct {
	header http.Header
	body   []byte
	status int
}

func newMemResponseWriter() *memResponseWriter {
	return &memResponseWriter{header: make(http.Header, 4)}
}

func (w *memResponseWriter) Header() http.Header { return w.header }

func (w *memResponseWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *memResponseWriter) WriteHeader(code int) { w.status = code }

func (w *memResponseWriter) reset() { w.body = w.body[:0] }

func sampleResult() *core.Result {
	return &core.Result{
		Target:   "opengemm",
		Workload: "matmul",
		Pipeline: core.AllOptimizations,
		N:        64,
		Counters: sim.Counters{Cycles: 123456, HostInstrs: 7890, ConfigInstrs: 42},
		Verified: true,
		PeakOps:  512,
	}
}

// TestWriteJSONMatchesMarshal: clients parse response bodies; swapping the
// per-request json.Marshal for the pooled encoder must not change a byte.
func TestWriteJSONMatchesMarshal(t *testing.T) {
	res := sampleResult()
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	w := newMemResponseWriter()
	if err := writeJSON(w, res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.body, want) {
		t.Errorf("writeJSON body differs from json.Marshal:\n got %s\nwant %s", w.body, want)
	}
	if got := w.header.Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", got)
	}
}

// TestWriteJSONSteadyStateZeroAllocs is the cached-path allocation gate:
// once the responder pool and the writer's buffers are warm, encoding a
// Result must not allocate. Request parsing and routing sit outside this
// gate (URL query parsing inherently allocates in net/http); the gate
// covers everything this package owns on the cached path.
func TestWriteJSONSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	res := sampleResult()
	w := newMemResponseWriter()
	if err := writeJSON(w, res); err != nil { // warm the pool and buffers
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		w.reset()
		if err := writeJSON(w, res); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("pooled writeJSON allocated %v allocs/op, want 0", avg)
	}
}
