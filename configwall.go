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

	"configwall/internal/analytic"
	"configwall/internal/core"
	"configwall/internal/difftest"
	"configwall/internal/fault"
	"configwall/internal/irgen"
	"configwall/internal/roofline"
	"configwall/internal/serve"
	"configwall/internal/sim"
	"configwall/internal/store"
	"configwall/internal/tune"
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

// LookupTarget resolves a registered target by name.
func LookupTarget(name string) (Target, error) { return core.LookupTarget(name) }

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

// RunWorkload compiles and simulates a registered workload for a target.
func RunWorkload(t Target, w Workload, p Pipeline, n int, opts RunOptions) (Result, error) {
	return core.Run(t, w, p, n, opts)
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

// --- The analytical prediction tier (internal/analytic) ---
//
// The simulation-free third tier of DESIGN.md §10: per-target roofline
// constants plus per-(workload, pipeline) curves fitted against the
// simulator on a seeded training grid and validated on held-out cells.
// A calibrated model plugs into a Runner as its Predictor, unlocking
// multi-fidelity sweeps (screen / top-K) that answer most cells in
// microseconds.

// Fidelity selects a Run's prediction tier: FidelityFull simulates
// (memoized + stored), FidelityScreen answers purely analytically, and
// FidelityCached serves cached ground truth or falls back to a prediction.
type Fidelity = core.Fidelity

// Fidelity tiers; parse wire names with FidelityByName.
const (
	FidelityFull   = core.FidelityFull
	FidelityScreen = core.FidelityScreen
	FidelityCached = core.FidelityCached
)

// FidelityByName resolves a fidelity tier from its wire name ("full",
// "screen" or "cached").
func FidelityByName(name string) (Fidelity, error) { return core.FidelityByName(name) }

// Predictor is a simulation-free estimator of experiment results; install
// one on a Runner (RunnerOptions.Predictor or Runner.SetPredictor) to
// serve FidelityScreen/FidelityCached requests.
type Predictor = core.Predictor

// AnalyticModel is a calibrated analytical-tier model; it implements
// Predictor and round-trips through JSON (WriteFile / ReadAnalyticModel).
type AnalyticModel = analytic.Model

// AnalyticSpec configures one calibration run (grid, seed, error band).
type AnalyticSpec = analytic.Spec

// AnalyticBand is the documented held-out prediction error band.
type AnalyticBand = analytic.Band

// AnalyticReport is the held-out error report of one calibration run;
// Clean reports whether every target honors the band.
type AnalyticReport = analytic.Report

// CalibrateAnalytic fits the analytical tier against the simulator on a
// seeded training grid and validates it on held-out cells. The returned
// model is usable regardless of band violations; callers that must
// enforce the band check Report.Clean.
func CalibrateAnalytic(ctx context.Context, r *Runner, spec AnalyticSpec) (*AnalyticModel, *AnalyticReport, error) {
	return analytic.Calibrate(ctx, r, spec)
}

// ReadAnalyticModel loads a model written by AnalyticModel.WriteFile (or
// cwbench -calibrate).
func ReadAnalyticModel(path string) (*AnalyticModel, error) { return analytic.ReadModel(path) }

// TopKByPredictedPerf ranks predicted results by ops/cycle and returns
// the indices of the k best, in ascending input order — the selection
// half of a multi-fidelity sweep (see Runner.Screen and Runner.RunTopK).
func TopKByPredictedPerf(preds []Result, k int) []int {
	return core.TopKByPredictedPerf(preds, k)
}

// --- Differential verification (internal/irgen + internal/difftest) ---
//
// The fuzzing subsystem behind cmd/cwfuzz: seeded random accfg programs
// checked for observational equivalence between the Baseline pipeline and
// every optimization pipeline on the co-simulator.

// FuzzProgram is one generated differential test case.
type FuzzProgram = irgen.Program

// DiffOptions tunes a differential check.
type DiffOptions = difftest.Options

// DiffReport is the outcome of one differential check.
type DiffReport = difftest.Report

// GenerateFuzzProgram builds the seeded random accfg program for a
// registered target's accelerator. The same (target, seed) pair always
// yields a byte-identical module and inputs.
func GenerateFuzzProgram(target string, seed int64) (FuzzProgram, error) {
	prof, err := irgen.ProfileFor(target)
	if err != nil {
		return FuzzProgram{}, err
	}
	return irgen.Generate(prof, seed)
}

// DiffCheck compiles and co-simulates the program through Baseline and
// every optimization pipeline, asserting observational equivalence and the
// metamorphic counter bounds.
func DiffCheck(t Target, prog FuzzProgram, opts DiffOptions) DiffReport {
	return difftest.Check(t, prog, opts)
}

// FuzzSeed derives the per-program generator seed used by cwfuzz campaigns.
func FuzzSeed(campaign int64, target string, index int) int64 {
	return irgen.DeriveSeed(campaign, target, index)
}

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

// ServeRunRequest is the /v1/run request document.
type ServeRunRequest = serve.RunRequest

// ServeSweepRequest is the /v1/sweep request document.
type ServeSweepRequest = serve.SweepRequest

// ServeSweepEvent is one NDJSON event of a streaming sweep.
type ServeSweepEvent = serve.SweepEvent

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

// --- Fault injection & resilience (internal/fault, DESIGN.md §11) ---
//
// The robustness subsystem behind cmd/cwchaos: a seeded deterministic
// fault-injection plan threaded through the store, the HTTP transport and
// the serving daemon, plus the self-healing client layers (retry with
// capped jittered backoff, sweep resume) that the chaos campaigns verify
// against the byte-identity and no-duplicate-simulation invariants.

// FaultSite names one injection point (e.g. "store.save.torn",
// "transport.reset", "serve.run.panic").
type FaultSite = fault.Site

// Injection sites threaded through the store, transport and daemon.
const (
	FaultStoreSaveFail        = fault.StoreSaveFail
	FaultStoreSaveTorn        = fault.StoreSaveTorn
	FaultStoreLoadErr         = fault.StoreLoadErr
	FaultStoreLoadSlow        = fault.StoreLoadSlow
	FaultTransportReset       = fault.TransportReset
	FaultTransportTimeout     = fault.TransportTimeout
	FaultTransportUnavailable = fault.TransportUnavailable
	FaultTransportTruncate    = fault.TransportTruncate
	FaultServeHandlerPanic    = fault.ServeHandlerPanic
	FaultServeRunPanic        = fault.ServeRunPanic
)

// FaultRule schedules one site: fire probability, warm-up passages, total
// budget and (for slow sites) the injected delay.
type FaultRule = fault.Rule

// FaultPlan is an installed fault schedule with per-site seeded decision
// streams. A nil *FaultPlan is valid and permanently quiet.
type FaultPlan = fault.Plan

// NewFaultPlan builds a deterministic fault plan: each site draws from its
// own RNG seeded by (seed, site), so schedules replay exactly.
func NewFaultPlan(seed int64, rules map[FaultSite]FaultRule) *FaultPlan {
	return fault.New(seed, rules)
}

// FaultStore wraps a result store with scheduled save/load failures, torn
// writes and slow loads.
type FaultStore = fault.Store

// FaultTransport wraps an http.RoundTripper with scheduled connection
// resets, timeouts, synthesized 503s and response-body truncation.
type FaultTransport = fault.Transport

// RetryPolicy drives the serve client's self-healing layer: capped
// exponential backoff with deterministic jitter, honoring Retry-After.
type RetryPolicy = serve.RetryPolicy

// Retryable reports whether an error from the serve client is worth
// retrying on an idempotent request.
func Retryable(err error) bool { return serve.Retryable(err) }

// --- Configuration search (internal/tune, DESIGN.md §12) ---
//
// The search subsystem behind cmd/cwtune: pluggable strategies over the
// (target × workload × pipeline × size) space, discovered from a daemon's
// /v1/registry, measured through the self-healing client, compared under
// equal budgets against an exhaustive ground truth, and validated on a
// seeded held-out split the search never sees.

// TuneStrategy is one pluggable configuration searcher.
type TuneStrategy = tune.Strategy

// TuneStrategyByName resolves a registered strategy ("exhaustive",
// "random", "halving", "flash"); unknown names fail listing the valid
// ones.
func TuneStrategyByName(name string) (TuneStrategy, error) { return tune.StrategyByName(name) }

// TuneStrategyNames lists the registered search strategies, sorted.
func TuneStrategyNames() []string { return tune.StrategyNames() }

// TuneSession is the budget ledger between a strategy and its evaluator:
// memoized measurements, distinct-cell budget accounting and incumbent
// tracking.
type TuneSession = tune.Session

// NewTuneSession builds a session over space with a distinct-cell budget
// (<= 0 means the whole space) and a seed for the strategy's randomness.
func NewTuneSession(space []Experiment, eval TuneEvaluator, budget int, seed int64) *TuneSession {
	return tune.NewSession(space, eval, budget, seed)
}

// TuneEvaluator is how strategies measure cells (HTTP client or
// in-process runner).
type TuneEvaluator = tune.Evaluator

// TuneClientEvaluator measures through a cwserve daemon via the retry
// layer; its Screen issues fidelity=screen sweeps against the daemon's
// analytic tier.
type TuneClientEvaluator = tune.ClientEvaluator

// TuneRunnerEvaluator measures directly against an in-process Runner.
type TuneRunnerEvaluator = tune.RunnerEvaluator

// TuneSpace is a discovered search space: searchable cells plus the
// held-out validation cells excluded from every search.
type TuneSpace = tune.Space

// TuneFilters restricts a discovered search space by names and size.
type TuneFilters = tune.Filters

// TuneSpaceFromRegistry expands a daemon's registry response into a
// search space with a seeded held-out split.
func TuneSpaceFromRegistry(info ServeRegistryInfo, f TuneFilters, seed int64) (TuneSpace, error) {
	return tune.SpaceFromRegistry(info, f, seed)
}

// TuneConfig configures one search campaign.
type TuneConfig = tune.Config

// TuneOutcome is one strategy's campaign result (sims, sims-to-best,
// winner, held-out validation).
type TuneOutcome = tune.Outcome

// TuneReport is a finished campaign; String renders the deterministic
// report, WallSummary the stderr-only timings.
type TuneReport = tune.Report

// RunTuneCampaign runs the configured strategies under equal budgets
// against an exhaustive ground truth and validates the winners on the
// held-out cells.
func RunTuneCampaign(ctx context.Context, cfg TuneConfig) (*TuneReport, error) {
	return tune.Run(ctx, cfg)
}

// ServeRegistryInfo is the /v1/registry response: registered names,
// server caps, analytic-tier availability and per-(workload, target)
// feasible size grids.
type ServeRegistryInfo = serve.RegistryInfo

// DefaultSizeGrid is the probe grid registry size discovery answers from.
var DefaultSizeGrid = core.DefaultSizeGrid

// SupportedSizes filters candidate sweep sizes down to those workload w
// can actually build for target t.
func SupportedSizes(t Target, w Workload, candidates []int) []int {
	return core.SupportedSizes(t, w, candidates)
}
