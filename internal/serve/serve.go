// Package serve exposes the memoized experiment runner and its persistent
// store over HTTP, turning the reproduction into a long-lived
// experiment-measurement service: configuration-search clients
// (autotuners, dashboards, sweep drivers) hammer the same measurement
// cache with heavily overlapping queries, and the server answers them
// with exactly one simulation per distinct cell.
//
// The layering (DESIGN.md §7):
//
//	HTTP handlers → core.Runner cell claim (coalesce identical in-flight
//	                requests; memoization, worker pool, persistent store)
//	                  → admission, for the goroutine that won the claim
//	                    (bounded concurrency + queue, 429 backpressure)
//
// Endpoints:
//
//	GET/POST /v1/run    one experiment cell; the response body is
//	                    byte-identical to json.Marshal of a direct
//	                    Runner.Run result
//	POST     /v1/sweep  a (targets × workloads × pipelines × sizes) grid;
//	                    streams NDJSON events as cells complete
//	GET      /v1/registry  registered targets/workloads/pipelines/engines
//	GET      /metrics   Prometheus text: cache counters, queue gauges,
//	                    latency histograms
//	GET      /healthz   200 ok, 503 once draining
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"configwall/internal/core"
	"configwall/internal/fault"
	"configwall/internal/sim"
	"configwall/internal/store"
)

// Options configures a Server.
type Options struct {
	// Runner executes and memoizes the experiments. Required.
	Runner *core.Runner
	// Concurrency bounds how many distinct experiment cells compute at
	// once; <= 0 selects the runner's worker bound.
	Concurrency int
	// QueueDepth bounds how many distinct-cell requests may wait for an
	// execution slot beyond Concurrency; 0 selects the default (64), < 0
	// disables queuing (immediate rejection when all slots are busy).
	QueueDepth int
	// QueueTimeout bounds how long a queued request waits for a slot
	// before a 429; <= 0 selects the default (30s).
	QueueTimeout time.Duration
	// MaxSweepCells caps the grid size one /v1/sweep request may expand
	// to; <= 0 selects the default (4096).
	MaxSweepCells int
	// MaxN caps the sweep size n of any requested cell; <= 0 selects the
	// default (1024). Simulation cost grows ~O(n^3) and a claimed cell
	// always computes to completion, so without this cap a handful of
	// huge-n requests could wedge every execution slot for hours.
	MaxN int
	// Fault, when non-nil, installs a fault-injection plan on the serving
	// path (the chaos harness's hook): the plan's serve.handler.panic and
	// serve.run.panic sites fire panics that the recovery layers must
	// contain. Production servers leave it nil — the disabled check is
	// one pointer comparison.
	Fault *fault.Plan
}

const (
	defaultQueueDepth    = 64
	defaultQueueTimeout  = 30 * time.Second
	defaultMaxSweepCells = 4096
	defaultMaxN          = 1024
)

// Server is the experiment-serving daemon core: an http.Handler over a
// core.Runner with request coalescing, admission control and live
// metrics. Create one with New and put it on a listener with Serve
// (or mount it on an http.Server of your own and call BeginDrain/Close
// around its shutdown).
type Server struct {
	runner        *core.Runner
	admit         *admission
	met           *metrics
	mux           *http.ServeMux
	maxSweepCells int
	maxN          int
	fault         *fault.Plan

	// sizes caches the per-(workload, target) feasible size grids served
	// by /v1/registry; the registry is append-only after init and the
	// probe is pure, so computing it once per server life is safe.
	sizesOnce sync.Once
	sizes     map[string]map[string][]int

	// inflight counts the cells whose leader is queued for or holding an
	// admission slot (the cwserve_inflight_cells gauge).
	inflight atomic.Int64

	cancel   context.CancelFunc // ends the admission's base context (Close)
	draining atomic.Bool
}

// New builds a Server from opts.
func New(opts Options) (*Server, error) {
	if opts.Runner == nil {
		return nil, fmt.Errorf("serve: Options.Runner is required")
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = opts.Runner.Workers()
	}
	depth := opts.QueueDepth
	switch {
	case depth == 0:
		depth = defaultQueueDepth
	case depth < 0:
		depth = 0
	}
	timeout := opts.QueueTimeout
	if timeout <= 0 {
		timeout = defaultQueueTimeout
	}
	maxCells := opts.MaxSweepCells
	if maxCells <= 0 {
		maxCells = defaultMaxSweepCells
	}
	maxN := opts.MaxN
	if maxN <= 0 {
		maxN = defaultMaxN
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		runner:        opts.Runner,
		admit:         newAdmission(ctx, conc, depth, timeout),
		met:           newMetrics(),
		mux:           http.NewServeMux(),
		maxSweepCells: maxCells,
		maxN:          maxN,
		fault:         opts.Fault,
		cancel:        cancel,
	}
	s.mux.HandleFunc("/v1/run", s.instrument("run", s.handleRun))
	s.mux.HandleFunc("/v1/sweep", s.instrument("sweep", s.handleSweep))
	s.mux.HandleFunc("/v1/registry", s.instrument("registry", s.handleRegistry))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// Runner returns the server's runner (for stats inspection).
func (s *Server) Runner() *core.Runner { return s.runner }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// WarmFromStore enumerates every entry of the disk store and preloads it
// into the runner's in-memory cell map, so a freshly booted server answers
// everything a previous life measured without touching the simulator. It
// returns how many cells it loaded. Cancelling ctx stops the scan early.
func (s *Server) WarmFromStore(ctx context.Context, st *store.DiskStore) (int, error) {
	warmed := 0
	err := st.Each(func(e store.Entry) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.runner.Preload(e.Experiment, e.Options, e.Result) {
			warmed++
		}
		return nil
	})
	return warmed, err
}

// BeginDrain flips the server into draining mode: /healthz turns 503 so
// load balancers stop routing here, and new experiment requests are
// rejected with 503 while requests already in flight finish normally.
// Call it before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close cancels the server's base context, unblocking any computation
// still queued for admission. Call it after http.Server.Shutdown returns.
func (s *Server) Close() { s.cancel() }

// Serve answers requests on ln from a background goroutine and returns the
// function that stops it. That function is the whole drain sequence, in
// order: BeginDrain, http.Server.Shutdown under ctx — requests in flight
// finish; its error (context.DeadlineExceeded when they outlast ctx) is
// what the function returns — then Close.
func (s *Server) Serve(ln net.Listener) (shutdown func(ctx context.Context) error) {
	httpSrv := &http.Server{Handler: s}
	go httpSrv.Serve(ln)
	return func(ctx context.Context) error {
		s.BeginDrain()
		err := httpSrv.Shutdown(ctx)
		s.Close()
		return err
	}
}

// instrument wraps a handler with drain rejection, request metrics and
// panic recovery: a panicking handler answers 500 (when nothing has been
// written yet) instead of killing the connection with no response, the
// recovery is counted in cwserve_panics_recovered_total, and the daemon
// stays up. Admission slots never leak across a panic — their releases
// are deferred, and deferred calls run during the unwind before the
// recovery here sees it.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "server is draining", http.StatusServiceUnavailable)
			s.met.observe(endpoint, http.StatusServiceUnavailable, 0)
			return
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panicked()
				// Best-effort 500: if the handler already wrote a status
				// (or streamed part of a body), the wire is what it is —
				// the client's truncation detection takes over from here.
				if !sw.wrote {
					http.Error(sw, fmt.Sprintf("internal error: %v", rec), http.StatusInternalServerError)
				}
			}
			s.met.observe(endpoint, sw.code, time.Since(start))
		}()
		if s.fault.Fire(fault.ServeHandlerPanic) {
			panic("fault: injected handler panic")
		}
		h(sw, r)
	}
}

// statusWriter records the status code a handler wrote, and whether
// anything was written at all (panic recovery can only synthesize a 500
// on an untouched response).
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// Flush forwards streaming flushes (NDJSON sweeps) to the underlying
// writer.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// RunRequest is the JSON body of POST /v1/run; GET passes the same fields
// as query parameters (target, workload, pipeline, n, engine, trace,
// skipverify).
type RunRequest struct {
	Target      string `json:"target"`
	Workload    string `json:"workload"`
	Pipeline    string `json:"pipeline"`
	N           int    `json:"n"`
	Engine      string `json:"engine,omitempty"`
	RecordTrace bool   `json:"record_trace,omitempty"`
	SkipVerify  bool   `json:"skip_verify,omitempty"`
}

// resolve validates the request against the registry and returns the
// experiment cell and run options it names. Error messages list the valid
// names so misconfigured clients fail fast and self-documentingly.
func (rq RunRequest) resolve(maxN int) (core.Experiment, core.RunOptions, error) {
	var e core.Experiment
	var opts core.RunOptions
	if rq.Target == "" {
		return e, opts, fmt.Errorf("missing target (registered: %s)", strings.Join(core.TargetNames(), ", "))
	}
	if _, err := core.LookupTarget(rq.Target); err != nil {
		return e, opts, err
	}
	if rq.Workload == "" {
		return e, opts, fmt.Errorf("missing workload (registered: %s)", strings.Join(core.WorkloadNames(), ", "))
	}
	if _, err := core.LookupWorkload(rq.Workload); err != nil {
		return e, opts, err
	}
	p, err := core.PipelineByName(rq.Pipeline)
	if err != nil {
		return e, opts, err
	}
	if rq.N < 1 {
		return e, opts, fmt.Errorf("bad n %d: want a positive sweep size", rq.N)
	}
	if rq.N > maxN {
		return e, opts, fmt.Errorf("n %d is above the server cap of %d", rq.N, maxN)
	}
	eng, err := requestEngine(rq.Engine)
	if err != nil {
		return e, opts, err
	}
	e = core.Experiment{Target: rq.Target, Workload: rq.Workload, Pipeline: p, N: rq.N}
	opts = core.RunOptions{RecordTrace: rq.RecordTrace, SkipVerify: rq.SkipVerify, Engine: eng}
	return e, opts, nil
}

// requestEngine resolves a request's engine field; a request that names
// none runs the zero-value engine, the same cell core.RunOptions{} names.
func requestEngine(name string) (sim.Engine, error) {
	if name == "" {
		return 0, nil
	}
	return sim.EngineByName(name)
}

// maxRequestBody bounds a POSTed request: the largest legitimate one is a
// sweep's four name lists, a few hundred bytes.
const maxRequestBody = 1 << 20

// decodeBody decodes the one JSON value a POST body carries into v. Unknown
// fields, a body above maxRequestBody and anything after the value are all
// errors, so nothing is dispatched on a request the server only half read.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("bad JSON body: data after the request value")
	}
	return nil
}

// parseRunRequest decodes GET query parameters or a POST JSON body.
func parseRunRequest(w http.ResponseWriter, r *http.Request) (RunRequest, error) {
	var rq RunRequest
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		// POST rejects unknown fields; a dropped query key would answer for a
		// cell the client did not ask for (skip_verify is the JSON spelling).
		for key := range q {
			switch key {
			case "target", "workload", "pipeline", "n", "engine", "trace", "skipverify":
			default:
				return rq, fmt.Errorf("unknown query parameter %q (valid: target, workload, pipeline, n, engine, trace, skipverify)", key)
			}
		}
		rq.Target = q.Get("target")
		rq.Workload = q.Get("workload")
		rq.Pipeline = q.Get("pipeline")
		rq.Engine = q.Get("engine")
		var err error
		if nv := q.Get("n"); nv != "" {
			if rq.N, err = strconv.Atoi(nv); err != nil {
				return rq, fmt.Errorf("bad n %q: %v", nv, err)
			}
		}
		if rq.RecordTrace, err = boolParam(q.Get("trace")); err != nil {
			return rq, fmt.Errorf("bad trace: %v", err)
		}
		if rq.SkipVerify, err = boolParam(q.Get("skipverify")); err != nil {
			return rq, fmt.Errorf("bad skipverify: %v", err)
		}
	case http.MethodPost:
		if err := decodeBody(w, r, &rq); err != nil {
			return rq, err
		}
	default:
		return rq, errMethod
	}
	return rq, nil
}

var errMethod = errors.New("method not allowed")

func boolParam(v string) (bool, error) {
	if v == "" {
		return false, nil
	}
	return strconv.ParseBool(v)
}

// execute runs one validated cell through the serving stack: the runner's
// cell claim coalesces, and only the goroutine that wins it is put through
// admission. wait selects batch admission semantics (sweep cells block for
// slots instead of 429ing). reqCtx governs this caller's waiting — for the
// cell as a follower, for a slot as the leader; an admitted cell computes
// to completion whoever is still listening.
func (s *Server) execute(reqCtx context.Context, e core.Experiment, opts core.RunOptions, wait bool) (core.Result, error) {
	acquire := s.admit.acquire
	if wait {
		acquire = s.admit.acquireWait
	}
	res, err, led := s.runner.RunAdmitted(reqCtx, e, opts, func(ctx context.Context) (func(), error) {
		s.inflight.Add(1)
		release, err := acquire(ctx)
		if err != nil {
			s.inflight.Add(-1)
			return nil, err
		}
		done := func() { release(); s.inflight.Add(-1) }
		// Injected with the slot held: the unwind runs the deferred release
		// and the runner publishes the panic as this cell's error and drops
		// the cell — the recovery contract the chaos campaign asserts (no
		// leaked slots, no leaked cells).
		if s.fault.Fire(fault.ServeRunPanic) {
			defer done()
			panic("fault: injected run-path panic")
		}
		return done, nil
	})
	var pe *core.PanicError
	switch {
	case !led:
		s.met.coalesce()
	case errors.As(err, &pe):
		// A poisoned workload or an injected run-path fault counts
		// alongside handler-level recoveries.
		s.met.panicked()
	}
	return res, err
}

// writeRunError maps an execution error onto an HTTP status.
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQueueTimeout):
		reason := "queue_full"
		if errors.Is(err, ErrQueueTimeout) {
			reason = "queue_timeout"
		}
		s.met.reject(reason)
		// The hint is derived from live load — expected drain time of the
		// admitted work — not a hardcoded constant, so well-behaved clients
		// back off proportionally to how far behind the server actually is.
		w.Header().Set("Retry-After", strconv.Itoa(s.admit.retryAfterSeconds()))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if r.Context().Err() != nil {
			// The client went away; nobody is reading the response.
			return
		}
		http.Error(w, "server is shutting down", http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	rq, err := parseRunRequest(w, r)
	if errors.Is(err, errMethod) {
		http.Error(w, err.Error(), http.StatusMethodNotAllowed)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	e, opts, err := rq.resolve(s.maxN)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Cached fast path: a completed cell answers with one runner map
	// lookup and a pooled response encode — no cell claim, no admission
	// slot. The Peek result is the shared cached Result; writeJSON only
	// reads it.
	if cached, ok := s.runner.Peek(e, opts); ok {
		if err := writeJSON(w, cached); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	res, err := s.execute(r.Context(), e, opts, false)
	if err != nil {
		s.writeRunError(w, r, err)
		return
	}
	// The body is exactly json.Marshal(core.Result) — byte-identical to
	// what a direct Runner.Run caller would serialize, on both the cached
	// and the computed path. Tests and the load generator rely on it.
	if err := writeJSON(w, &res); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// SweepRequest is the JSON body of POST /v1/sweep: the cross product of
// the listed names is validated against the registry and executed on the
// worker pool.
type SweepRequest struct {
	Targets     []string `json:"targets"`
	Workloads   []string `json:"workloads"`
	Pipelines   []string `json:"pipelines"`
	Sizes       []int    `json:"sizes"`
	Engine      string   `json:"engine,omitempty"`
	RecordTrace bool     `json:"record_trace,omitempty"`
	SkipVerify  bool     `json:"skip_verify,omitempty"`
	// Fidelity selects the prediction tier (DESIGN.md §10): "" or "full"
	// simulates every cell; "screen" answers the whole grid from the
	// analytical model (zero simulations, results marked Analytic);
	// "topk" screens the grid and simulates only the TopK cells with the
	// best predicted ops/cycle. "screen" and "topk" require a server
	// booted with a calibrated model (cwserve -analytic).
	Fidelity string `json:"fidelity,omitempty"`
	// TopK is the simulated-cell budget of a "topk" sweep; required >= 1
	// there, rejected elsewhere.
	TopK int `json:"top_k,omitempty"`
}

// SweepEvent is one NDJSON line of a streaming sweep: a completed cell
// (Result set), a failed cell (Error set), or the final trailer line
// (Done true). The trailer is an end-of-stream sentinel: it carries the
// total cell count, the failure count and an explicit Status, and the
// client treats a stream that ends without one — or whose cell events
// don't add up to Cells — as truncated, never as complete.
type SweepEvent struct {
	Index      *int             `json:"index,omitempty"`
	Experiment *core.Experiment `json:"experiment,omitempty"`
	Result     *core.Result     `json:"result,omitempty"`
	Error      string           `json:"error,omitempty"`
	Done       bool             `json:"done,omitempty"`
	Cells      int              `json:"cells,omitempty"`
	Failed     int              `json:"failed,omitempty"`
	// Status is "ok" or "error" on trailer lines (error when any cell
	// failed) and empty on cell lines. A trailer without it is not a
	// trailer: clients reject the stream as truncated.
	Status string `json:"status,omitempty"`
}

// trailerStatus renders the sweep trailer's Status field.
func trailerStatus(failed int) string {
	if failed > 0 {
		return "error"
	}
	return "ok"
}

// resolve validates the request — the grid against the registry and the
// server's caps, the fidelity/top_k combination against whether the server
// has an analytic model — and expands it into the experiment grid. It is the
// one place a sweep request is validated: nothing is dispatched before it
// returns.
func (rq SweepRequest) resolve(maxCells, maxN int, analytic bool) ([]core.Experiment, core.RunOptions, error) {
	var opts core.RunOptions
	if len(rq.Targets) == 0 || len(rq.Workloads) == 0 || len(rq.Pipelines) == 0 || len(rq.Sizes) == 0 {
		return nil, opts, fmt.Errorf("sweep needs targets, workloads, pipelines and sizes (registered targets: %s; workloads: %s)",
			strings.Join(core.TargetNames(), ", "), strings.Join(core.WorkloadNames(), ", "))
	}
	for _, t := range rq.Targets {
		if _, err := core.LookupTarget(t); err != nil {
			return nil, opts, err
		}
	}
	for _, w := range rq.Workloads {
		if _, err := core.LookupWorkload(w); err != nil {
			return nil, opts, err
		}
	}
	pipes := make([]core.Pipeline, len(rq.Pipelines))
	for i, pn := range rq.Pipelines {
		p, err := core.PipelineByName(pn)
		if err != nil {
			return nil, opts, err
		}
		pipes[i] = p
	}
	for _, n := range rq.Sizes {
		if n < 1 {
			return nil, opts, fmt.Errorf("bad size %d: want a positive sweep size", n)
		}
		if n > maxN {
			return nil, opts, fmt.Errorf("size %d is above the server cap of %d", n, maxN)
		}
	}
	eng, err := requestEngine(rq.Engine)
	if err != nil {
		return nil, opts, err
	}
	exps := core.Sweep(rq.Targets, rq.Workloads, pipes, rq.Sizes)
	if len(exps) > maxCells {
		return nil, opts, fmt.Errorf("sweep expands to %d cells, above the server cap of %d", len(exps), maxCells)
	}
	predicted := false // does the answer need the analytic model
	switch rq.Fidelity {
	case "", "full":
	case "screen", "topk":
		predicted = true
	default:
		return nil, opts, fmt.Errorf("unknown fidelity %q (want \"full\", \"screen\" or \"topk\")", rq.Fidelity)
	}
	switch {
	case rq.Fidelity == "topk" && rq.TopK < 1:
		return nil, opts, fmt.Errorf("fidelity \"topk\" requires top_k >= 1")
	case rq.Fidelity != "topk" && rq.TopK != 0:
		return nil, opts, fmt.Errorf("top_k %d requires fidelity \"topk\"", rq.TopK)
	case predicted && !analytic:
		return nil, opts, fmt.Errorf("fidelity %q needs a calibrated analytic model (start cwserve with -analytic)", rq.Fidelity)
	}
	opts = core.RunOptions{RecordTrace: rq.RecordTrace, SkipVerify: rq.SkipVerify, Engine: eng}
	return exps, opts, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed (POST a SweepRequest JSON body)", http.StatusMethodNotAllowed)
		return
	}
	var rq SweepRequest
	if err := decodeBody(w, r, &rq); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	exps, opts, err := rq.resolve(s.maxSweepCells, s.maxN, s.runner.Predictor() != nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var preds []core.Result // the analytic answer of every cell
	var sim []int           // the cells to simulate
	switch rq.Fidelity {
	case "screen", "topk":
		if preds, err = s.runner.Screen(r.Context(), exps); err != nil {
			// Prediction failures are grid problems (an uncalibrated workload,
			// a size the target's tiling rejects), not server faults.
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// "screen" simulates nothing, "topk" only the k cells with the best
		// predicted ops/cycle.
		if rq.Fidelity == "topk" {
			sim = core.TopKByPredictedPerf(preds, rq.TopK)
		}
	default:
		sim = make([]int, len(exps))
		for i := range sim {
			sim[i] = i
		}
	}
	s.writeSweep(w, r, exps, opts, preds, sim)
}

// Sweep fidelity tiers, as exposed in cwserve_sweep_cells_total{tier=...}.
const (
	tierAnalytic  = "analytic"
	tierSimulated = "simulated"
)

// cellOutcome is one finished sweep cell, sent from the workers to the
// response writer.
type cellOutcome struct {
	index int
	res   core.Result
	err   error
}

// runSweep executes the cells of the grid listed in sim on a bounded
// worker pool through the serving stack (runner cell claim + batch
// admission) and sends each outcome, under its grid index, on the returned
// channel as it completes. The channel is closed when the sweep is done or
// the context cancels.
func (s *Server) runSweep(ctx context.Context, exps []core.Experiment, sim []int, opts core.RunOptions) <-chan cellOutcome {
	out := make(chan cellOutcome)
	go func() {
		defer close(out)
		core.ParallelEach(ctx, len(sim), s.runner.Workers(), func(j int) {
			res, err := s.execute(ctx, exps[sim[j]], opts, true)
			// The send races the writer abandoning the response; a
			// cancelled context unblocks the worker so no goroutine
			// outlives the request.
			select {
			case out <- cellOutcome{index: sim[j], res: res, err: err}:
			case <-ctx.Done():
			}
		})
	}()
	return out
}

// writeSweep answers one grid: the cells listed in sim (ascending grid
// indices) are simulated through runSweep — zero admission slots for the
// rest, whose answer is already in ready (nil when sim is the whole grid).
//
// The response is one NDJSON SweepEvent per cell, then the trailer: the
// ready cells first, in grid order (the analytic tier is instant), then the
// simulated ones in completion order, flushing after every line.
func (s *Server) writeSweep(w http.ResponseWriter, r *http.Request, exps []core.Experiment, opts core.RunOptions, ready []core.Result, sim []int) {
	s.met.sweepTier(tierAnalytic, len(exps)-len(sim))
	s.met.sweepTier(tierSimulated, len(sim))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	if ready != nil {
		next := 0 // position in sim of the next simulated index
		for i := range ready {
			if next < len(sim) && sim[next] == i {
				next++
				continue
			}
			idx := i
			if enc.Encode(SweepEvent{Index: &idx, Experiment: &exps[i], Result: &ready[i]}) != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	failed := 0
	ch := s.runSweep(r.Context(), exps, sim, opts)
	for oc := range ch {
		i := oc.index
		ev := SweepEvent{Index: &i, Experiment: &exps[i]}
		if oc.err != nil {
			failed++
			ev.Error = oc.err.Error()
		} else {
			ev.Result = &oc.res
		}
		if enc.Encode(ev) != nil {
			// The client went away; drain so the sweep goroutine (which
			// also unblocks via r.Context()) can close the channel.
			for range ch {
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(SweepEvent{Done: true, Cells: len(exps), Failed: failed, Status: trailerStatus(failed)})
}

// RegistryInfo is the response of GET /v1/registry: everything a
// configuration-search client (cmd/cwtune) needs to build its search space
// without hardcoding the daemon's tiling rules or caps.
type RegistryInfo struct {
	Targets   []string `json:"targets"`
	Workloads []string `json:"workloads"`
	Pipelines []string `json:"pipelines"`
	Engines   []string `json:"engines"`
	// MaxN is the server's cap on any requested sweep size n.
	MaxN int `json:"max_n"`
	// MaxSweepCells caps the grid one /v1/sweep may expand to.
	MaxSweepCells int `json:"max_sweep_cells"`
	// Analytic reports whether a calibrated predictor is attached, i.e.
	// whether fidelity=screen / fidelity=topk sweeps will be accepted.
	Analytic bool `json:"analytic"`
	// Sizes maps workload name → target name → the sweep sizes that
	// (target, workload) pair can actually build, probed over
	// core.DefaultSizeGrid capped at MaxN. A pair no grid size fits gets
	// an empty list.
	Sizes map[string]map[string][]int `json:"sizes"`
}

func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	pipes := make([]string, len(core.Pipelines))
	for i, p := range core.Pipelines {
		pipes[i] = p.String()
	}
	info := RegistryInfo{
		Targets:       core.TargetNames(),
		Workloads:     core.WorkloadNames(),
		Pipelines:     pipes,
		Engines:       sim.EngineNames(),
		MaxN:          s.maxN,
		MaxSweepCells: s.maxSweepCells,
		Analytic:      s.runner.Predictor() != nil,
		Sizes:         s.registrySizes(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

// registrySizes probes the feasible size grid for every (workload, target)
// pair, once per server life. The JSON encoder sorts map keys, so the
// response stays byte-deterministic.
func (s *Server) registrySizes() map[string]map[string][]int {
	s.sizesOnce.Do(func() {
		candidates := make([]int, 0, len(core.DefaultSizeGrid))
		for _, n := range core.DefaultSizeGrid {
			if n <= s.maxN {
				candidates = append(candidates, n)
			}
		}
		sizes := make(map[string]map[string][]int)
		for _, wName := range core.WorkloadNames() {
			w, err := core.LookupWorkload(wName)
			if err != nil {
				continue
			}
			perTarget := make(map[string][]int)
			for _, tName := range core.TargetNames() {
				t, err := core.LookupTarget(tName)
				if err != nil {
					continue
				}
				feasible := core.SupportedSizes(t, w, candidates)
				if feasible == nil {
					feasible = []int{}
				}
				perTarget[tName] = feasible
			}
			sizes[wName] = perTarget
		}
		s.sizes = sizes
	})
	return s.sizes
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var sb strings.Builder
	st := s.runner.Snapshot()
	// The Go runtime gauges make the allocation discipline of the serving
	// hot paths (pooled execution contexts, trace buffers and response
	// encoders) observable: a healthy cached-traffic steady state shows a
	// flat heap and a near-constant GC cycle rate.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeSeries(&sb, []series{
		{"cwserve_cache_mem_hits_total", "Requests answered by the in-memory cell map.", "counter", st.MemHits},
		{"cwserve_cache_mem_misses_total", "Requests past the in-memory cell map.", "counter", st.MemMisses},
		{"cwserve_cache_store_hits_total", "Memory misses answered by the persistent store.", "counter", st.StoreHits},
		{"cwserve_cache_store_misses_total", "Memory misses the persistent store could not answer.", "counter", st.StoreMisses},
		{"cwserve_cache_runs_total", "Experiments actually compiled and simulated.", "counter", st.Runs},
		{"cwserve_cache_predictions_total", "Cells answered by the analytic tier instead of simulation.", "counter", st.Predictions},
		{"cwserve_cache_evictions_total", "Cells dropped by the LRU bound.", "counter", st.Evictions},
		{"cwserve_cache_store_errors_total", "Store load/save operational failures.", "counter", st.StoreErrors},
		// The alerting-facing alias: nonzero means the daemon is serving in
		// degraded mode (results live in memory but stopped being durable)
		// and /healthz says "degraded".
		{"cwserve_store_errors_total", "Tolerated persistent-store failures; nonzero means degraded (non-durable) serving.", "counter", st.StoreErrors},
		{"cwserve_go_heap_alloc_bytes", "Bytes of live heap objects (runtime.MemStats.HeapAlloc).", "gauge", ms.HeapAlloc},
		{"cwserve_go_heap_objects", "Live heap objects.", "gauge", ms.HeapObjects},
		{"cwserve_go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", "counter", float64(ms.PauseTotalNs) / 1e9},
		{"cwserve_go_gc_cycles_total", "Completed GC cycles.", "counter", ms.NumGC},
	})
	s.met.render(&sb, []series{
		{"cwserve_queue_depth", "Request-mode admissions in the system (executing or waiting).", "gauge", s.admit.queued()},
		{"cwserve_slots_busy", "Execution slots currently held.", "gauge", s.admit.busy()},
		{"cwserve_inflight_cells", "Distinct experiment cells currently computing.", "gauge", s.inflight.Load()},
		{"cwserve_cache_cells", "In-memory memoized experiment cells.", "gauge", s.runner.CacheSize()},
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, sb.String())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// Degraded mode stays 200 — the server still answers correctly from
	// memory, so load balancers must keep routing here — but the body
	// tells operators durability is gone (see cwserve_store_errors_total).
	if s.runner.Snapshot().StoreErrors > 0 {
		fmt.Fprintln(w, "degraded")
		return
	}
	fmt.Fprintln(w, "ok")
}
