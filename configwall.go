// Package configwall reproduces "The Configuration Wall: Characterization
// and Elimination of Accelerator Configuration Overhead" (ASPLOS 2026) as a
// self-contained Go library.
//
// It bundles three layers:
//
//   - A compiler: an SSA IR with the paper's accfg dialect
//     (setup/launch/await), the configuration-deduplication and
//     configuration–computation-overlap passes, and lowerings to two
//     accelerator command-stream dialects.
//   - A platform simulator: an RV64-subset host co-simulated with
//     Gemmini-style (sequential configuration) and OpenGeMM-style
//     (concurrent configuration) accelerator models, with functional
//     execution and the paper's performance counters.
//   - The configuration roofline model (Eq. 1–5) and an experiment engine
//     that regenerates every table and figure of the paper's evaluation.
//
// Quick start:
//
//	target := configwall.OpenGeMMTarget()
//	res, err := configwall.RunTiledMatmul(target, configwall.AllOptimizations, 64, configwall.RunOptions{})
//	if err != nil { ... }
//	fmt.Printf("%.1f ops/cycle (%.0f%% of peak)\n", res.OpsPerCycle(), 100*res.Utilization())
//
// Sweeps should go through the registry and the concurrent runner: targets
// and workloads are registered by name, experiments key one (target,
// workload, pipeline, n) cell, and a Runner executes batches on a bounded
// worker pool with a per-cell cache and deterministic result ordering:
//
//	r := configwall.NewRunner(0) // 0 = GOMAXPROCS workers
//	exps := configwall.SweepExperiments(
//		configwall.TargetNames(), []string{configwall.WorkloadMatmul},
//		configwall.Pipelines, []int{16, 32, 64})
//	results, err := r.RunAll(ctx, exps, configwall.RunOptions{})
//
// For long-lived use the runner and store can be served over HTTP
// (cmd/cwserve): NewServer wraps a Runner with request coalescing, a
// bounded admission queue and live metrics, NewServeClient talks to such
// a daemon, and LoadGen replays a zipf-skewed request mix against it.
//
// See the examples/ directory for complete programs and DESIGN.md for the
// per-experiment index.
package configwall

import (
	"context"

	"configwall/internal/core"
	"configwall/internal/roofline"
	"configwall/internal/serve"
	"configwall/internal/sim"
	"configwall/internal/store"
)

// Pipeline selects which of the paper's optimizations run.
type Pipeline = core.Pipeline

// Pipeline variants (paper Figure 12's base / dedup / overlap / all).
const (
	// Baseline models -O2 on volatile inline assembly.
	Baseline = core.Baseline
	// DedupOnly adds configuration deduplication (paper §5.4).
	DedupOnly = core.DedupOnly
	// OverlapOnly adds configuration-computation overlap (paper §5.5).
	OverlapOnly = core.OverlapOnly
	// AllOptimizations applies the full accfg pipeline.
	AllOptimizations = core.AllOptimizations
)

// Pipelines lists all variants in presentation order.
var Pipelines = core.Pipelines

// Target bundles a simulated accelerator platform and its compiler
// lowering.
type Target = core.Target

// Result carries the measurements of one simulated run.
type Result = core.Result

// RunOptions tweaks experiment execution.
type RunOptions = core.RunOptions

// Engine selects the simulator execution engine for a run.
type Engine = sim.Engine

// Simulator engines. Both produce byte-identical results — the
// differential oracle continuously enforces it — but the fast engine
// executes a predecoded program form with block-batched accounting
// (DESIGN.md §6).
const (
	// EngineFast is the predecoded fast engine: the zero value, so what
	// RunOptions{} runs.
	EngineFast = sim.EngineFast
	// EngineRef is the reference interpreter the fast engine is verified
	// against; it runs only when named.
	EngineRef = sim.EngineRef
)

// EngineByName parses an engine name ("ref" or "fast").
func EngineByName(name string) (Engine, error) { return sim.EngineByName(name) }

// EngineNames lists the registered engine names in definition order.
func EngineNames() []string { return sim.EngineNames() }

// GemminiTarget returns the Gemmini-style platform: a 16x16 systolic array
// (512 ops/cycle) with sequential configuration via RoCC custom
// instructions on a Rocket-class RV64 host.
func GemminiTarget() Target { return core.GemminiTarget() }

// OpenGeMMTarget returns the OpenGeMM-style platform: an 8x8x8 GeMM core
// (1024 ops/cycle) with concurrent (staged) configuration via CSRs on a
// tiny in-order host.
func OpenGeMMTarget() Target { return core.OpenGeMMTarget() }

// RunTiledMatmul compiles the n x n tiled matrix multiplication for the
// target under the chosen pipeline, simulates it, verifies the result
// against a golden CPU matmul, and returns the measurements.
func RunTiledMatmul(t Target, p Pipeline, n int, opts RunOptions) (Result, error) {
	return core.RunTiledMatmul(t, p, n, opts)
}

// Workload is a registered kernel family parameterized by sweep size.
type Workload = core.Workload

// Instance is one concrete (workload, target, size) build: the IR module
// plus the buffer plan the engine executes and verifies.
type Instance = core.Instance

// Buffer is one function-argument buffer of a workload instance.
type Buffer = core.Buffer

// Built-in workload names.
const (
	// WorkloadMatmul is the paper's square n x n x n tiled matmul.
	WorkloadMatmul = core.WorkloadMatmul
	// WorkloadRectMM is the rectangular n x 2n x n/2 tiled matmul.
	WorkloadRectMM = core.WorkloadRectMM
	// WorkloadMatvec is the matrix-vector proxy (n x n x 16 panel).
	WorkloadMatvec = core.WorkloadMatvec
)

// RegisterTarget adds an accelerator platform to the registry; duplicate
// names are an error. Registered targets are addressable by name in
// Experiments without touching the engine.
func RegisterTarget(t Target) error { return core.RegisterTarget(t) }

// TargetNames lists the registered targets, sorted.
func TargetNames() []string { return core.TargetNames() }

// RegisterWorkload adds a workload to the registry; duplicate names are an
// error.
func RegisterWorkload(w Workload) error { return core.RegisterWorkload(w) }

// LookupWorkload resolves a registered workload by name.
func LookupWorkload(name string) (Workload, error) { return core.LookupWorkload(name) }

// WorkloadNames lists the registered workloads, sorted.
func WorkloadNames() []string { return core.WorkloadNames() }

// Experiment keys one cell of the evaluation sweep by registry names.
type Experiment = core.Experiment

// Runner executes experiments on a bounded worker pool with a
// per-experiment result cache and deterministic (input-order) results.
type Runner = core.Runner

// NewRunner returns a runner with the given worker bound (<= 0 selects
// GOMAXPROCS).
func NewRunner(workers int) *Runner { return core.NewRunner(workers) }

// RunnerOptions configures a Runner beyond the worker bound: an optional
// persistent Store backend and an LRU bound on the in-memory cell map.
type RunnerOptions = core.RunnerOptions

// NewRunnerWith returns a runner configured by opts.
func NewRunnerWith(opts RunnerOptions) *Runner { return core.NewRunnerWith(opts) }

// Store persists experiment results across processes; plug one into a
// Runner via RunnerOptions to make repeated sweeps skip every stored cell.
type Store = core.Store

// CacheStats counts how a Runner satisfied experiment requests (memory
// hits, store hits, fresh runs, evictions); read them with
// Runner.Snapshot.
type CacheStats = core.CacheStats

// DiskStore is the content-addressed on-disk Store implementation:
// schema-versioned fingerprint keys, atomic writes, corruption-tolerant
// loads. Multiple processes may share one directory.
type DiskStore = store.DiskStore

// OpenStore prepares a disk store rooted at dir, creating it if needed.
func OpenStore(dir string) (*DiskStore, error) { return store.Open(dir) }

// StoreEntry is one enumerated disk-store record (see DiskStore.Each and
// DiskStore.Keys): the fingerprint key plus the self-described experiment,
// options and result.
type StoreEntry = store.Entry

// ShardExperiments returns the i-th of m strided partitions of a sweep.
// The m shards are disjoint and cover the sweep exactly, so a grid can be
// split across processes that share a persistent store.
func ShardExperiments(exps []Experiment, i, m int) ([]Experiment, error) {
	return core.Shard(exps, i, m)
}

// RunExperiment resolves an experiment through the registry and executes it
// once, uncached.
func RunExperiment(e Experiment, opts RunOptions) (Result, error) {
	return core.RunExperiment(e, opts)
}

// SweepExperiments builds the cross product of targets, workloads,
// pipelines and sizes in deterministic row-major order.
func SweepExperiments(targets, workloads []string, pipelines []Pipeline, sizes []int) []Experiment {
	return core.Sweep(targets, workloads, pipelines, sizes)
}

// RooflineModel is the paper's configuration roofline (§4).
type RooflineModel = roofline.Model

// Sequential evaluates Eq. 3: attainable performance of a sequentially
// configured accelerator.
func Sequential(peakOps, bwConfig, ioc float64) float64 {
	return roofline.Sequential(peakOps, bwConfig, ioc)
}

// Concurrent evaluates Eq. 2: attainable performance of a concurrently
// configured accelerator.
func Concurrent(peakOps, bwConfig, ioc float64) float64 {
	return roofline.Concurrent(peakOps, bwConfig, ioc)
}

// EffectiveConfigBW evaluates Eq. 4: configuration bandwidth corrected for
// parameter-calculation time.
func EffectiveConfigBW(configBytes, tCalc, tSet float64) float64 {
	return roofline.EffectiveConfigBW(configBytes, tCalc, tSet)
}

// Geomean returns the geometric mean, the paper's summary statistic.
func Geomean(xs []float64) float64 { return core.Geomean(xs) }

// --- Experiment serving (internal/serve) ---
//
// The serving subsystem behind cmd/cwserve and cmd/cwload: an HTTP JSON
// API over the memoized runner and the persistent store, with singleflight
// request coalescing, a bounded admission queue with 429 backpressure,
// NDJSON sweep streaming, live metrics and graceful drain (DESIGN.md §7).

// Server is the experiment-serving daemon core: an http.Handler over a
// Runner. Mount it on an http.Server and call BeginDrain/Close around the
// listener's shutdown.
type Server = serve.Server

// ServerOptions configures a Server: the Runner (required), the
// computation concurrency bound, the admission queue depth and timeout,
// and the sweep-size cap.
type ServerOptions = serve.Options

// NewServer builds an experiment server from opts.
func NewServer(opts ServerOptions) (*Server, error) { return serve.New(opts) }

// ServeClient is a Go client for a cwserve daemon.
type ServeClient = serve.Client

// NewServeClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8080").
func NewServeClient(base string) *ServeClient { return serve.NewClient(base) }

// LoadGenOptions configures a zipf-skewed load-generation run.
type LoadGenOptions = serve.LoadGenOptions

// LoadGenReport summarizes a load-generation run (throughput, latency
// percentiles, status histogram, byte-identity verification).
type LoadGenReport = serve.LoadGenReport

// LoadGen replays a zipf-skewed experiment request mix against a cwserve
// daemon and reports throughput and latency.
func LoadGen(ctx context.Context, c *ServeClient, o LoadGenOptions) (LoadGenReport, error) {
	return serve.LoadGen(ctx, c, o)
}
