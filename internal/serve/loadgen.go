package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"configwall/internal/core"
)

// LoadGenOptions configures a load-generation run against a cwserve
// daemon: a zipf-skewed request mix over a fixed experiment universe, the
// traffic shape configuration-search clients produce (many near-duplicate
// measurements of the hot cells, a long tail of rare ones).
type LoadGenOptions struct {
	// Experiments is the request universe, indexed by zipf rank: index 0
	// is the hottest cell. Required.
	Experiments []core.Experiment
	// Options are the run options sent with every request.
	Options core.RunOptions
	// Requests is the total number of requests; <= 0 selects 1000.
	Requests int
	// Clients is the number of concurrent client workers; <= 0 selects 8.
	Clients int
	// ZipfS is the zipf skew parameter (must be > 1; larger = more
	// skewed); <= 1 selects 1.4, which concentrates ~90% of requests on
	// the few hottest cells of a small universe.
	ZipfS float64
	// Seed seeds the request mix; the same seed and options produce the
	// same request sequence. 0 selects 1.
	Seed int64
	// Verify checks that every response body for a cell is byte-identical
	// to the first response seen for that cell (the memoized simulator is
	// deterministic, so any difference is a serving bug).
	Verify bool
	// Retry429 makes workers honor 429 backpressure the way a well-behaved
	// client does: wait as Retry says (the server's Retry-After hint under
	// the policy's cap) and re-send, instead of counting the rejection as an
	// error. Only 429 is asked again — 5xx and transport failures stay
	// errors, which is what a load generator is there to surface. Only the
	// final outcome of each logical request lands in the status histogram;
	// retries are reported separately.
	Retry429 bool
	// Retry is the backoff policy under Retry429; the zero value is the
	// client's default. LoadGen overwrites its OnRetry with the counter
	// behind LoadGenReport.Retries.
	Retry RetryPolicy
}

// LoadGenReport summarizes one load-generation run.
type LoadGenReport struct {
	Requests   int
	Errors     int           // transport failures and non-200 responses
	Mismatched int           // byte-identity violations (Verify mode)
	Distinct   int           // distinct cells requested
	Retries    int           // 429s retried after honoring Retry-After (Retry429 mode)
	StatusHist map[int]int   // responses by HTTP status (0 = transport error)
	Elapsed    time.Duration // wall clock of the whole run
	Throughput float64       // requests per second
	Mean       time.Duration // per-request latency statistics
	P50        time.Duration
	P90        time.Duration
	P99        time.Duration
	Max        time.Duration
}

// String renders the report as the human/CI-artifact latency summary.
func (r LoadGenReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loadgen: %d requests over %d distinct cells in %v (%.0f req/s)\n",
		r.Requests, r.Distinct, r.Elapsed.Round(time.Millisecond), r.Throughput)
	fmt.Fprintf(&sb, "loadgen: errors %d, byte-identity mismatches %d, backpressure retries %d\n", r.Errors, r.Mismatched, r.Retries)
	codes := make([]int, 0, len(r.StatusHist))
	for c := range r.StatusHist {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		label := fmt.Sprintf("HTTP %d", c)
		if c == 0 {
			label = "transport error"
		}
		fmt.Fprintf(&sb, "loadgen: %-16s %d\n", label, r.StatusHist[c])
	}
	fmt.Fprintf(&sb, "loadgen: latency mean %v p50 %v p90 %v p99 %v max %v\n",
		r.Mean.Round(time.Microsecond), r.P50.Round(time.Microsecond),
		r.P90.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.Max.Round(time.Microsecond))
	return sb.String()
}

// LoadGen replays a zipf-skewed request mix against the server behind c
// and reports throughput and latency. The request sequence is derived
// deterministically from the seed before any request is sent, so the mix
// (though not the interleaving) is reproducible.
func LoadGen(ctx context.Context, c *Client, o LoadGenOptions) (LoadGenReport, error) {
	if len(o.Experiments) == 0 {
		return LoadGenReport{}, fmt.Errorf("loadgen: empty experiment universe")
	}
	requests := o.Requests
	if requests <= 0 {
		requests = 1000
	}
	clients := o.Clients
	if clients <= 0 {
		clients = 8
	}
	if clients > requests {
		clients = requests
	}
	zs := o.ZipfS
	if zs <= 1 {
		zs = 1.4
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}

	// Pre-draw the whole mix so worker scheduling cannot change it.
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zs, 1, uint64(len(o.Experiments)-1))
	seq := make([]int, requests)
	distinct := map[int]bool{}
	for i := range seq {
		seq[i] = int(zipf.Uint64())
		distinct[seq[i]] = true
	}

	latencies := make([]time.Duration, requests)
	statuses := make([]int, requests)

	var mu sync.Mutex // guards canonical and mismatched
	canonical := map[int][]byte{}
	mismatched := 0
	var retries atomic.Int64
	pol := o.Retry
	pol.OnRetry = func(int, time.Duration, error) { retries.Add(1) }
	if !o.Retry429 {
		pol.MaxAttempts = 1
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests || ctx.Err() != nil {
					return
				}
				cell := seq[i]
				// Latency is the logical request's wall time: with
				// Retry429 it includes the honored backoff sleeps, which
				// is exactly what a well-behaved client experiences under
				// server backpressure.
				t0 := time.Now()
				body, err := c.runRaw(ctx, o.Experiments[cell], o.Options, pol, is429)
				latencies[i] = time.Since(t0)
				statuses[i] = http.StatusOK
				if err != nil {
					statuses[i] = 0 // a transport error, unless the daemon answered
					var se *StatusError
					if errors.As(err, &se) {
						statuses[i] = se.Code
					}
					continue
				}
				if o.Verify {
					mu.Lock()
					if prev, ok := canonical[cell]; !ok {
						canonical[cell] = body
					} else if string(prev) != string(body) {
						mismatched++
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return LoadGenReport{}, err
	}

	rep := LoadGenReport{
		Requests:   requests,
		Mismatched: mismatched,
		Distinct:   len(distinct),
		Retries:    int(retries.Load()),
		StatusHist: map[int]int{},
		Elapsed:    elapsed,
		Throughput: float64(requests) / elapsed.Seconds(),
	}
	for _, st := range statuses {
		rep.StatusHist[st]++
	}
	rep.Errors = requests - rep.StatusHist[http.StatusOK]
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	rep.Mean = sum / time.Duration(requests)
	rep.P50 = percentile(sorted, 0.50)
	rep.P90 = percentile(sorted, 0.90)
	rep.P99 = percentile(sorted, 0.99)
	rep.Max = sorted[len(sorted)-1]
	return rep, nil
}

// is429 is the load generator's retry predicate: server backpressure and
// nothing else.
func is429(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusTooManyRequests
}

// percentile reads the p-th percentile from an ascending-sorted slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// CanonicalBodies computes, via direct Runner execution on a private
// runner, the expected response body for every cell of the universe —
// the reference for byte-identity assertions in tests and CI.
func CanonicalBodies(ctx context.Context, exps []core.Experiment, opts core.RunOptions) (map[string][]byte, error) {
	r := core.NewRunner(0)
	bodies := make(map[string][]byte, len(exps))
	for _, e := range exps {
		res, err := r.Run(ctx, e, opts)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		bodies[core.FingerprintKey(e, opts)] = body
	}
	return bodies, nil
}
