// Command cwserve is the experiment-serving daemon: it exposes the
// memoized concurrent runner and the persistent disk store over an HTTP
// JSON API, so autotuners, dashboards and sweep drivers share one
// measurement cache with request coalescing and admission-controlled
// backpressure (DESIGN.md §7).
//
//	cwserve -addr :8080 -cache-dir .cwcache
//	cwserve -addr 127.0.0.1:9000 -concurrency 4 -queue-depth 32 -queue-timeout 10s
//
// Endpoints:
//
//	GET  /v1/run?target=T&workload=W&pipeline=P&n=N[&engine=E][&trace=B][&skipverify=B]
//	     Measure one experiment cell. The JSON body is byte-identical to
//	     json.Marshal of a direct Runner.Run result. Identical concurrent
//	     requests coalesce onto one simulation.
//	POST /v1/run
//	     Same, with a JSON body: {"target","workload","pipeline","n",
//	     "engine","record_trace","skip_verify"}.
//	POST /v1/sweep
//	     Expand and run a grid: {"targets":[],"workloads":[],
//	     "pipelines":[],"sizes":[],"engine","record_trace","skip_verify"}.
//	     The response is NDJSON: one {"index","experiment",
//	     "result"|"error"} event per cell in completion order, then
//	     {"done":true,"cells","failed","status"}. Unknown fields are a
//	     400. With -analytic the request may add "fidelity":"screen"
//	     (every cell answered analytically, zero simulations) or
//	     "fidelity":"topk" with "top_k":K (only the K best-predicted
//	     cells simulated); per-tier cell counts are exported as
//	     cwserve_sweep_cells_total{tier="analytic"|"simulated"}.
//	GET  /v1/registry
//	     Registered targets, workloads, pipelines and engines.
//	GET  /metrics
//	     Prometheus text exposition: cache hit/miss/run/evict counters,
//	     queue depth and slot gauges, coalescing and rejection counters,
//	     per-endpoint latency histograms.
//	GET  /healthz
//	     200 "ok" while serving; 200 "degraded" when the persistent
//	     store has failed at least once (results still serve from
//	     memory but stopped being durable); 503 once draining.
//
// Responses: 400 names the invalid field and lists the valid registry
// names (requests above -max-n or -max-sweep-cells are also 400); 429
// (with Retry-After) is admission backpressure — the queue was full or
// the queue wait timed out; 503 means the server is draining.
//
// On SIGTERM/SIGINT the daemon drains gracefully: /healthz flips to 503,
// new experiment requests are rejected, in-flight requests finish (up to
// -drain-timeout), then the process exits 0.
//
// With -cache-dir the runner is backed by the persistent store and, at
// boot, warmed from it: every enumerable entry is preloaded into memory,
// so a restarted daemon answers everything a previous life measured
// without re-simulating. Use cwload to benchmark a running daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"configwall/internal/analytic"
	"configwall/internal/core"
	"configwall/internal/serve"
	"configwall/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache-dir", "", "directory of the persistent experiment-result store (empty = in-memory only)")
	workers := flag.Int("workers", 0, "experiment worker-pool bound (0 = GOMAXPROCS)")
	maxCells := flag.Int("max-cells", 0, "LRU bound on the in-memory cell map, counting claimed cells: leaders still queued for a slot take an entry (0 = unbounded)")
	concurrency := flag.Int("concurrency", 0, "max distinct experiment cells computing at once (0 = worker bound)")
	queueDepth := flag.Int("queue-depth", 0, "max distinct-cell requests waiting for a slot (0 = default 64, negative = no queue)")
	queueTimeout := flag.Duration("queue-timeout", 0, "max queue wait before a 429 (0 = default 30s)")
	maxSweepCells := flag.Int("max-sweep-cells", 0, "cap on one sweep's expanded grid (0 = default 4096)")
	maxN := flag.Int("max-n", 0, "cap on any requested sweep size n (0 = default 1024)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on SIGTERM")
	analyticFit := flag.Bool("analytic", false, "calibrate the analytical prediction tier at boot (enables /v1/sweep fidelity screen/topk)")
	analyticModel := flag.String("analytic-model", "", "load a calibrated analytic model JSON (cwbench -calibrate) instead of fitting at boot; implies -analytic")
	flag.Parse()

	ropts := core.RunnerOptions{Workers: *workers, MaxCells: *maxCells}
	// Store failures degrade the daemon instead of failing requests:
	// results keep serving from memory, /healthz reports "degraded", and
	// every tolerated failure is logged here so operators see what broke.
	ropts.OnStoreError = func(op string, e core.Experiment, err error) {
		logf("store %s failed for %s (serving degraded, results non-durable): %v", op, e, err)
	}
	var st *store.DiskStore
	if *cacheDir != "" {
		var err error
		if st, err = store.Open(*cacheDir); err != nil {
			fatal("%v", err)
		}
		ropts.Store = st
	}
	runner := core.NewRunnerWith(ropts)

	if *analyticFit || *analyticModel != "" {
		if err := attachAnalytic(runner, *analyticModel); err != nil {
			fatal("%v", err)
		}
	}

	sv, err := serve.New(serve.Options{
		Runner:        runner,
		Concurrency:   *concurrency,
		QueueDepth:    *queueDepth,
		QueueTimeout:  *queueTimeout,
		MaxSweepCells: *maxSweepCells,
		MaxN:          *maxN,
	})
	if err != nil {
		fatal("%v", err)
	}

	if st != nil {
		warmed, err := sv.WarmFromStore(context.Background(), st)
		if err != nil {
			fatal("warming from %s: %v", *cacheDir, err)
		}
		logf("warmed %d cells from %s", warmed, *cacheDir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("%v", err)
	}
	shutdown := sv.Serve(ln)
	logf("serving on %s (workers=%d)", *addr, runner.Workers())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()

	logf("signal received; draining (timeout %v)", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("shutdown: %v", err)
	}
	logf("drained; %s", runner.Snapshot())
}

// attachAnalytic installs the analytical prediction tier on the runner
// (analytic.Attach: a model file, or a boot-time fit that must honor its
// band) and logs what the daemon will screen with.
func attachAnalytic(runner *core.Runner, modelPath string) error {
	if modelPath == "" {
		logf("calibrating analytic tier (seed %d)", analytic.DefaultSeed)
	}
	model, rep, err := analytic.Attach(context.Background(), runner, modelPath, analytic.DefaultSeed)
	if err != nil {
		return err
	}
	if rep == nil {
		logf("analytic tier loaded from %s (calibration seed %d)", modelPath, model.Seed)
		return nil
	}
	for _, tr := range rep.Targets {
		logf("analytic %s: %d held-out cells, geomean cycle error %.1f%%, max %.1f%%",
			tr.Target, len(tr.Cells), 100*tr.GeomeanErr, 100*tr.MaxErr)
	}
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cwserve: "+format+"\n", args...)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cwserve: "+format+"\n", args...)
	os.Exit(1)
}
