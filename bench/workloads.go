package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"configwall/internal/core"
	"configwall/internal/difftest"
	"configwall/internal/irgen"
	"configwall/internal/mem"
	"configwall/internal/sim"
)

// workers is how many operations run at once: one per core of the machine
// the bounds were derived on. Load comes from this one process.
const workers = 2

// scale sizes the workloads. fullScale is what BENCHMARK.json measures;
// smokeScale lets the test run every workload, traced and not, in seconds.
type scale struct {
	smallSizes    []int // sweep_small
	largeSizes    []int // sweep_large
	serveSizes    []int // serve_hot, serve_churn
	fuzzPerTarget int   // programs of each target in fuzz_oracle's universe
	hotRequests   int   // requests in a serve_hot block
	churnRequests int   // requests in a serve_churn round
	churnCells    int   // LRU bound of a serve_churn daemon
	setups        int   // set-ups timed for setup_s, at least
	setupBudget   time.Duration
}

var (
	fullScale = scale{
		smallSizes: []int{16, 32, 48, 64}, largeSizes: []int{128, 256, 512},
		serveSizes: []int{16, 32, 48, 64, 96, 128}, fuzzPerTarget: 25,
		hotRequests: 20000, churnRequests: 3000, churnCells: 32, setups: 3, setupBudget: 1500 * time.Millisecond,
	}
	smokeScale = scale{
		smallSizes: []int{16, 32}, largeSizes: []int{32}, serveSizes: []int{16, 32},
		fuzzPerTarget: 5, hotRequests: 1000, churnRequests: 1000, churnCells: 8, setups: 1,
	}
)

// env is what a workload's set-up receives.
type env struct {
	sc     scale
	outDir string // where temporary stores are made
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	why   string
	setup func(env) (instance, error)
}

// The five workloads, in the order every run and table uses.
var workloads = []workload{
	{"sweep_small", "cold cells at n up to 64: the compile front-end and arena reset do the work, device models and golden verify almost none", setupSweepSmall},
	{"sweep_large", "cold matmul cells at n=128..512: device launch and golden verify do the work, the front-end under 1%; bypasses every front-end change", setupSweepLarge},
	{"fuzz_oracle", "generate+difftest tiny programs: static analysis, every pipeline and every engine per program, so host dispatch matters here only", setupFuzz},
	{"serve_hot", "zipf 1.4 over a preloaded daemon: only Peek, encode and HTTP run, so any tax on the hit path shows and no simulator change may", setupServeHot},
	{"serve_churn", "zipf 1.1 over fresh store-backed daemons with a 32-cell LRU: cold cells, store save, eviction and store load on the miss path", setupServeChurn},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// simStats are the simulated (not host-time) totals of a universe; a
// change that only speeds the host up must leave them bit-identical.
type simStats struct {
	cycles  uint64  // sum of simulated cycles over the distinct operations
	speedup float64 // geomean of cycles(base)/cycles(all)
}

// blockResult is one block of operations.
type blockResult struct {
	ops, failed int
	wall        time.Duration
	// lat holds the wall time of every operation, indexed by its place in
	// the universe, when the benchmark timed them itself; serve.LoadGen
	// times its own requests and reports only the block's percentiles,
	// which then arrive in p50, p90 and p99.
	lat           []time.Duration
	p50, p90, p99 time.Duration
	tiers         core.CacheStats // serve blocks: how the runner answered
	status429     int
	retries       int
}

// instance is a workload set up and ready to run.
type instance interface {
	// reference computes what every operation must return by calling the
	// program directly, checks it where the check is not per operation, and
	// returns the simulated totals and the operations that failed. It also
	// serves as the warm-up: it runs every operation of the universe once.
	reference() (simStats, int, error)
	// block runs one block: every operation of the block's fixed set, in
	// the order seed gives. With a recorder it runs the traced variant.
	block(seed int64, rec *recorder) blockResult
	// layers adds the per-layer metrics the spans do not give: exact counts
	// from the reference results and probes of calls made a second time.
	layers(m map[string]float64) (failed int, err error)
	close()
}

// eachOp runs fn(i) for i in [0,n) on the benchmark's workers.
func eachOp(n int, fn func(i int)) {
	// The context is never cancelled, so ParallelEach has no error to give.
	_ = core.ParallelEach(context.Background(), n, workers, fn)
}

// universe lists every (target x workload x n x pipeline) cell the
// registry supports at the given sizes, in registry (sorted-name) order.
func universe(sizes []int, workloadNames []string) ([]core.Experiment, error) {
	var cells []core.Experiment
	for _, tn := range core.TargetNames() {
		t, err := core.LookupTarget(tn)
		if err != nil {
			return nil, err
		}
		for _, wn := range workloadNames {
			w, err := core.LookupWorkload(wn)
			if err != nil {
				return nil, err
			}
			for _, n := range core.SupportedSizes(t, w, sizes) {
				for _, p := range core.Pipelines {
					cells = append(cells, core.Experiment{Target: tn, Workload: wn, Pipeline: p, N: n})
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("no supported cell at sizes %v", sizes)
	}
	return cells, nil
}

// directResults runs every cell once through core.RunExperiment with the
// zero-value options and returns the results, the simulated totals and
// how many cells errored or did not verify.
func directResults(cells []core.Experiment) ([]core.Result, simStats, int, error) {
	results := make([]core.Result, len(cells))
	errs := make([]error, len(cells))
	eachOp(len(cells), func(i int) {
		results[i], errs[i] = core.RunExperiment(cells[i], core.RunOptions{})
	})
	type group struct {
		target, workload string
		n                int
	}
	base, all := map[group]uint64{}, map[group]uint64{}
	var groups []group
	var st simStats
	failed := 0
	for i, e := range cells {
		if errs[i] != nil {
			return nil, st, 0, fmt.Errorf("direct run of %s: %w", e, errs[i])
		}
		if !results[i].Verified {
			failed++
		}
		st.cycles += results[i].Cycles
		g := group{e.Target, e.Workload, e.N}
		switch e.Pipeline {
		case core.Baseline:
			base[g] = results[i].Cycles
			groups = append(groups, g)
		case core.AllOptimizations:
			all[g] = results[i].Cycles
		}
	}
	ratios := make([]float64, len(groups))
	for i, g := range groups {
		ratios[i] = float64(base[g]) / float64(all[g])
	}
	st.speedup = core.Geomean(ratios)
	return results, st, failed, nil
}

// shuffled returns a permutation of [0,n) drawn from seed.
func shuffled(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// sweep is sweep_small and sweep_large: every block runs every cell of the
// universe cold, on a fresh runner.
type sweep struct {
	cells  []core.Experiment
	ref    []core.Result
	arenas arenas // traced run only
}

func setupSweepSmall(ev env) (instance, error) {
	return setupSweep(ev.sc.smallSizes, core.WorkloadNames())
}

func setupSweepLarge(ev env) (instance, error) {
	return setupSweep(ev.sc.largeSizes, []string{core.WorkloadMatmul})
}

// warmMaxN bounds the cells a sweep's set-up runs once to fill the pools:
// all of sweep_small, the smallest size class of sweep_large.
const warmMaxN = 128

func setupSweep(sizes []int, workloadNames []string) (instance, error) {
	cells, err := universe(sizes, workloadNames)
	if err != nil {
		return nil, err
	}
	var warm []core.Experiment
	for _, e := range cells {
		if e.N <= warmMaxN {
			warm = append(warm, e)
		}
	}
	if _, err := core.NewRunner(workers).RunAll(context.Background(), warm, core.RunOptions{}); err != nil {
		return nil, err
	}
	return &sweep{cells: cells}, nil
}

func (s *sweep) reference() (simStats, int, error) {
	ref, st, failed, err := directResults(s.cells)
	s.ref = ref
	return st, failed, err
}

// memories returns the sweep's arenas, made on first use: only the traced
// run needs them.
func (s *sweep) memories() arenas {
	if s.arenas == nil {
		s.arenas = newArenas()
	}
	return s.arenas
}

func (s *sweep) block(seed int64, rec *recorder) blockResult {
	order := shuffled(len(s.cells), seed)
	lat := make([]time.Duration, len(order))
	var failed atomic.Int64
	var memories arenas
	if rec != nil {
		memories = s.memories()
	}
	runner := core.NewRunner(workers)
	ctx := context.Background()
	start := time.Now()
	eachOp(len(order), func(i int) {
		c := order[i]
		var res core.Result
		var err error
		t0 := time.Now()
		if rec == nil {
			res, err = runner.Run(ctx, s.cells[c], core.RunOptions{})
		} else {
			memory := <-memories
			res, err = replicaRun(rec, memory, s.cells[c])
			memories <- memory
		}
		lat[c] = time.Since(t0)
		if err != nil || !res.Verified || res.Counters != s.ref[c].Counters {
			failed.Add(1)
		}
	})
	return blockResult{ops: len(order), failed: int(failed.Load()), wall: time.Since(start), lat: lat}
}

// probeCells are the cells the layer probes visit: the two ends of the
// pipeline axis at every size, which halves the probes' cost and keeps
// every size class.
func (s *sweep) probeCells() []int {
	var idx []int
	for i, e := range s.cells {
		if e.Pipeline == core.Baseline || e.Pipeline == core.AllOptimizations {
			idx = append(idx, i)
		}
	}
	return idx
}

func (s *sweep) layers(m map[string]float64) (int, error) {
	var news []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		_ = mem.New(memorySize)
		news = append(news, float64(time.Since(t0)))
	}
	m["mem.new_ns"] = median(news)

	memories := s.memories()
	idx := s.probeCells()
	probe := newLayerProbe()
	errs := make([]error, len(idx))
	eachOp(len(idx), func(i int) {
		memory := <-memories
		errs[i] = probe.probeCell(s.cells[idx[i]], memory)
		memories <- memory
	})
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("probing %s: %w", s.cells[idx[i]], err)
		}
	}
	probe.report(m)
	return probe.failed, nil
}

func (s *sweep) close() {}

// fuzzCase is one program of fuzz_oracle's universe.
type fuzzCase struct {
	target core.Target
	prof   irgen.Profile
	seed   int64
}

// fuzzCampaign is the campaign seed the universe's program seeds derive
// from. It is fixed: --seed orders the programs, it never picks them, so
// two runs on different seeds do the same work.
const fuzzCampaign = 1

// fuzz is fuzz_oracle: every block generates and differentially checks
// every program of the universe.
type fuzz struct {
	cases  []fuzzCase
	cycles []uint64 // baseline cycles of each case, from reference
	static [2]int   // proved, all static verdicts, from reference
	mu     sync.Mutex
}

func setupFuzz(ev env) (instance, error) {
	f := &fuzz{}
	for _, tn := range core.TargetNames() {
		t, err := core.LookupTarget(tn)
		if err != nil {
			return nil, err
		}
		prof, err := irgen.ProfileFor(tn)
		if err != nil {
			return nil, err
		}
		for i := 0; i < ev.sc.fuzzPerTarget; i++ {
			f.cases = append(f.cases, fuzzCase{target: t, prof: prof, seed: irgen.DeriveSeed(fuzzCampaign, tn, i)})
		}
	}
	// Warm-up: every fifth program, so the heap has grown to the oracle's
	// working set before the first timed block.
	var warmErr atomic.Value
	eachOp(len(f.cases)/5, func(i int) {
		if rep, err := f.cases[5*i].check(nil); reportFailed(rep, err) {
			warmErr.Store(fmt.Errorf("fuzz_oracle warm-up: program %d failed its check", 5*i))
		}
	})
	if err, _ := warmErr.Load().(error); err != nil {
		return nil, err
	}
	return f, nil
}

// check is the operation: generate one program and run the oracle on it
// with its default options (static pre-oracle, every pipeline, every
// engine).
func (c fuzzCase) check(rec *recorder) (difftest.Report, error) {
	root := rec.begin("op", -1, -1)
	defer rec.end(root)
	id := rec.begin("irgen.generate", root, root)
	prog, err := irgen.Generate(c.prof, c.seed)
	rec.end(id)
	if err != nil {
		return difftest.Report{}, err
	}
	id = rec.begin("difftest.check", root, root)
	rep := difftest.Check(c.target, prog, difftest.Options{})
	rec.end(id)
	return rep, nil
}

func reportFailed(rep difftest.Report, err error) bool {
	return err != nil || rep.Invalid || rep.Diverged()
}

func (f *fuzz) reference() (simStats, int, error) {
	f.cycles = make([]uint64, len(f.cases))
	ratios := make([]float64, len(f.cases))
	errs := make([]error, len(f.cases))
	var failed atomic.Int64
	eachOp(len(f.cases), func(i int) {
		c := f.cases[i]
		rep, err := c.check(nil)
		if reportFailed(rep, err) {
			failed.Add(1)
			return
		}
		f.cycles[i] = rep.Base.Cycles
		f.mu.Lock()
		for _, s := range rep.Static {
			if s.Proved {
				f.static[0]++
			}
			f.static[1]++
		}
		f.mu.Unlock()
		// The oracle's report keeps only the baseline execution, so the
		// fully optimized program runs once more here for the speed-up.
		prog, err := irgen.Generate(c.prof, c.seed)
		if err != nil {
			errs[i] = err
			return
		}
		opt, _, err := difftest.Execute(c.target, prog.Module, prog, c.target.PassPipeline(core.AllOptimizations), nil, false)
		if err != nil {
			errs[i] = err
			return
		}
		ratios[i] = float64(rep.Base.Cycles) / float64(opt.Cycles)
	})
	var st simStats
	for _, err := range errs {
		if err != nil {
			return st, 0, err
		}
	}
	for _, c := range f.cycles {
		st.cycles += c
	}
	st.speedup = core.Geomean(ratios)
	return st, int(failed.Load()), nil
}

func (f *fuzz) block(seed int64, rec *recorder) blockResult {
	order := shuffled(len(f.cases), seed)
	lat := make([]time.Duration, len(order))
	var failed atomic.Int64
	start := time.Now()
	eachOp(len(order), func(i int) {
		c := order[i]
		t0 := time.Now()
		rep, err := f.cases[c].check(rec)
		lat[c] = time.Since(t0)
		if reportFailed(rep, err) || rep.Base.Cycles != f.cycles[c] {
			failed.Add(1)
		}
	})
	return blockResult{ops: len(order), failed: int(failed.Load()), wall: time.Since(start), lat: lat}
}

func (f *fuzz) layers(m map[string]float64) (int, error) {
	pipelines := len(difftest.OptimizationPipelines())
	m["difftest.pipeline_checks"] = float64(pipelines)
	m["difftest.engine_runs"] = float64((1 + pipelines) * len(sim.Engines))
	if f.static[1] > 0 {
		m["analysis.proved_ratio"] = float64(f.static[0]) / float64(f.static[1])
	}

	memories := newArenas()
	probe := newLayerProbe()
	errs := make([]error, len(f.cases))
	eachOp(len(f.cases), func(i int) {
		memory := <-memories
		errs[i] = probe.probeProgram(f.cases[i], memory)
		memories <- memory
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	probe.report(m)
	return probe.failed, nil
}

func (f *fuzz) close() {}
