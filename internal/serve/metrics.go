package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// latencyBuckets are the histogram upper bounds in seconds (plus an
// implicit +Inf). Log-spaced from 0.5ms to 10s: cached cells land in the
// sub-millisecond buckets, cold compiles+simulations in the tail.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// hist is one cumulative latency histogram; buckets has one slot per
// upper bound plus the +Inf overflow.
type hist struct {
	buckets []uint64
	sum     float64
	count   uint64
}

func newHist() *hist {
	return &hist{buckets: make([]uint64, len(latencyBuckets)+1)}
}

func (h *hist) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, s)
	h.buckets[i]++
	h.sum += s
	h.count++
}

// metrics aggregates the serving counters behind /metrics. All methods are
// safe for concurrent use.
type metrics struct {
	mu         sync.Mutex
	requests   map[string]map[int]uint64 // endpoint -> status code -> count
	latency    map[string]*hist          // endpoint -> latency histogram
	coalesced  uint64
	rejected   map[string]uint64 // reason -> count
	sweepCells uint64            // sweep cells answered
	panics     uint64            // panics contained by the recovery layers
}

func newMetrics() *metrics {
	return &metrics{
		requests: map[string]map[int]uint64{},
		latency:  map[string]*hist{},
		rejected: map[string]uint64{},
	}
}

func (m *metrics) observe(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	codes, ok := m.requests[endpoint]
	if !ok {
		codes = map[int]uint64{}
		m.requests[endpoint] = codes
	}
	codes[code]++
	h, ok := m.latency[endpoint]
	if !ok {
		h = newHist()
		m.latency[endpoint] = h
	}
	h.observe(d)
}

func (m *metrics) coalesce()            { m.mu.Lock(); m.coalesced++; m.mu.Unlock() }
func (m *metrics) reject(reason string) { m.mu.Lock(); m.rejected[reason]++; m.mu.Unlock() }
func (m *metrics) panicked()            { m.mu.Lock(); m.panics++; m.mu.Unlock() }

// sweep counts the n cells of one answered sweep.
func (m *metrics) sweep(n int) { m.mu.Lock(); m.sweepCells += uint64(n); m.mu.Unlock() }

// render emits the Prometheus text exposition format; gauges are the
// server's point-in-time readings, placed after the counters. Series are
// sorted so consecutive scrapes of an idle server are byte-identical.
func (m *metrics) render(sb *strings.Builder, gauges []series) {
	m.mu.Lock()
	defer m.mu.Unlock()

	header(sb, "cwserve_requests_total", "Requests served, by endpoint and status code.", "counter")
	for _, ep := range sortedKeys(m.requests) {
		codes := m.requests[ep]
		sorted := make([]int, 0, len(codes))
		for c := range codes {
			sorted = append(sorted, c)
		}
		sort.Ints(sorted)
		for _, c := range sorted {
			fmt.Fprintf(sb, "cwserve_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, c, codes[c])
		}
	}

	writeSeries(sb, []series{
		{"cwserve_coalesced_total", "Requests served by attaching to an in-flight identical computation.", "counter", m.coalesced},
		{"cwserve_panics_recovered_total", "Panics contained by the serving recovery layers (handler middleware and the runner's cell leader).", "counter", m.panics},
	})

	header(sb, "cwserve_rejected_total", "Requests shed by admission control, by reason.", "counter")
	for _, r := range sortedKeys(m.rejected) {
		fmt.Fprintf(sb, "cwserve_rejected_total{reason=%q} %d\n", r, m.rejected[r])
	}

	writeSeries(sb, []series{{"cwserve_sweep_cells_total", "Sweep cells answered.", "counter", m.sweepCells}})

	writeSeries(sb, gauges)

	if len(m.latency) > 0 {
		// One HELP/TYPE pair per metric name: the exposition format
		// forbids repeating them per label set.
		header(sb, "cwserve_latency_seconds", "Request latency, by endpoint.", "histogram")
	}
	for _, ep := range sortedKeys(m.latency) {
		h := m.latency[ep]
		cum := uint64(0)
		for i, le := range latencyBuckets {
			cum += h.buckets[i]
			fmt.Fprintf(sb, "cwserve_latency_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", ep, le, cum)
		}
		cum += h.buckets[len(latencyBuckets)]
		fmt.Fprintf(sb, "cwserve_latency_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		fmt.Fprintf(sb, "cwserve_latency_seconds_sum{endpoint=%q} %g\n", ep, h.sum)
		fmt.Fprintf(sb, "cwserve_latency_seconds_count{endpoint=%q} %d\n", ep, h.count)
	}
}

// header writes the HELP and TYPE lines that open a metric family.
func header(sb *strings.Builder, name, help, kind string) {
	fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// series is one unlabelled metric of the exposition; value is an integer,
// or a float64 printed %g.
type series struct {
	name, help, kind string
	value            any
}

// writeSeries renders unlabelled metrics, one row each.
func writeSeries(sb *strings.Builder, rows []series) {
	for _, m := range rows {
		header(sb, m.name, m.help, m.kind)
		fmt.Fprintf(sb, "%s %v\n", m.name, m.value)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
