// Package core is the experiment engine: it assembles the paper's
// compilation pipelines (Figure 8), compiles registered workloads for
// registered targets, runs them on the co-simulator, verifies results
// against the golden CPU models, and extracts the measurements behind every
// figure of the evaluation section.
//
// The engine itself is target- and workload-agnostic: platforms and kernels
// plug in through the registry (registry.go), and sweeps execute on the
// concurrent runner (runner.go).
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"configwall/internal/accel"
	"configwall/internal/accel/gemmini"
	"configwall/internal/accel/opengemm"
	"configwall/internal/codegen"
	"configwall/internal/ir"
	"configwall/internal/lower"
	"configwall/internal/mem"
	"configwall/internal/passes"
	"configwall/internal/riscv"
	"configwall/internal/roofline"
	"configwall/internal/sim"
	"configwall/internal/workload"
)

// Pipeline selects which of the paper's optimizations run (Figure 12
// distinguishes exactly these four variants).
type Pipeline int

// Pipeline variants.
const (
	// Baseline models -O2 on volatile inline assembly: constants fold and
	// common subexpressions merge, but configuration writes are all
	// emitted, in order, and nothing moves across them.
	Baseline Pipeline = iota
	// DedupOnly adds state tracing + configuration deduplication (§5.4).
	DedupOnly
	// OverlapOnly adds state tracing + configuration-computation overlap
	// (§5.5) without deduplication.
	OverlapOnly
	// AllOptimizations applies deduplication then overlap (the paper's
	// full accfg pipeline).
	AllOptimizations
)

func (p Pipeline) String() string {
	switch p {
	case DedupOnly:
		return "dedup"
	case OverlapOnly:
		return "overlap"
	case AllOptimizations:
		return "all"
	}
	return "base"
}

// Pipelines lists all variants in presentation order.
var Pipelines = []Pipeline{Baseline, DedupOnly, OverlapOnly, AllOptimizations}

// PipelineByName returns the pipeline with the given String() name.
func PipelineByName(name string) (Pipeline, error) {
	for _, p := range Pipelines {
		if p.String() == name {
			return p, nil
		}
	}
	// The list of valid names is built only here, so a hit allocates nothing.
	valid := make([]string, len(Pipelines))
	for i, p := range Pipelines {
		valid[i] = p.String()
	}
	return Baseline, fmt.Errorf("unknown pipeline %q (want %s)", name, strings.Join(valid, "|"))
}

// Target bundles everything needed to compile for and simulate one
// accelerator platform.
type Target struct {
	// Name is the accfg accelerator name.
	Name string
	// Port describes the accelerator's configuration interface: the
	// lowering, the static analyses, the roofline's raw bandwidth and the
	// overlap pass's concurrency question all read it. RegisterTarget
	// publishes it under Name for the analyses.
	Port *accel.Port
	// PeakOps is the accelerator's peak performance in ops/cycle.
	PeakOps float64
	// NewDevice builds a fresh simulated device.
	NewDevice func() accel.Device
	// Cost is the host cycle model.
	Cost riscv.CostModel
	// MatmulMKN optionally builds the target's C[M,N] = A[M,K] x B[K,N]
	// tiled-matmul IR. A target that provides it joins every built-in
	// matmul-family workload (matmul, rectmm, matvec) without further
	// registration.
	MatmulMKN func(mDim, kDim, nDim int) (*ir.Module, error)
	// MatmulTiling optionally decides, as closed-form arithmetic with no
	// IR built, whether MatmulMKN can build a shape and with which output
	// tiles; SupportedSizes uses it to probe sizes cheaply. A target
	// without the hook has its sizes probed by a real build.
	MatmulTiling func(mDim, kDim, nDim int) (workload.Tiling, error)
	// OutputBytes is the size of one output element the accelerator
	// stores (1 for int8, 4 for int32); workload builders consult it.
	OutputBytes int
}

// Concurrent reports whether the target configures concurrently (paper
// §2.2): overlap applies, and the concurrent roofline.
func (t Target) Concurrent() bool {
	return t.Port != nil && t.Port.Mode == accel.Concurrent
}

// GemminiTarget returns the Gemmini-style platform: sequential
// configuration, 512 ops/cycle, Rocket-class host at 3 cycles/instruction
// (paper §4.6, §6.1).
func GemminiTarget() Target {
	return Target{
		Name:         gemmini.Name,
		Port:         gemmini.Port,
		PeakOps:      gemmini.PeakOpsPerCycle,
		NewDevice:    func() accel.Device { return gemmini.New(gemmini.DefaultCost()) },
		Cost:         riscv.RocketCost(),
		MatmulMKN:    workload.GemminiTiledMatmulMKN,
		MatmulTiling: workload.GemminiMatmulTiling,
		OutputBytes:  1,
	}
}

// OpenGeMMTarget returns the OpenGeMM-style platform: concurrent
// configuration, 1024 ops/cycle, tiny in-order host (paper §6.2).
func OpenGeMMTarget() Target {
	return Target{
		Name:         opengemm.Name,
		Port:         opengemm.Port,
		PeakOps:      opengemm.PeakOpsPerCycle,
		NewDevice:    func() accel.Device { return opengemm.New(opengemm.DefaultCost()) },
		Cost:         riscv.SnitchCost(),
		MatmulMKN:    workload.OpenGeMMTiledMatmulMKN,
		MatmulTiling: workload.OpenGeMMMatmulTiling,
		OutputBytes:  4,
	}
}

// PassPipeline assembles the pass sequence for a pipeline variant on a
// target (paper Figure 8: shared accfg passes between target-specific
// conversions).
func (t Target) PassPipeline(p Pipeline) *ir.PassManager {
	concurrent := func(accelName string) bool {
		return t.Concurrent() && accelName == t.Name
	}
	pm := ir.NewPassManager()
	if p == Baseline {
		// The volatile-asm baseline still merges repeated pure
		// subexpressions (-O2 CSE works on asm *operands*), but gets no
		// folding, motion or loop simplification around the volatile
		// statements — the paper's premise that volatile inline assembly
		// "fully prevents the compiler to optimize any accelerator
		// configuration code" (§3.1).
		pm.Add(passes.CSE())
	} else {
		pm.Add(passes.Canonicalize(), passes.CSE())
	}
	if p != Baseline {
		// Volatile inline asm blocks loop simplification and
		// loop-invariant code motion (memory clobbers); the accfg flow is
		// free to unroll trivial loops and hoist.
		pm.Add(passes.SimplifyTrivialLoops())
		pm.Add(passes.Canonicalize(), passes.CSE())
		pm.Add(passes.LICM())
		pm.Add(passes.TraceStates())
	}
	if p == DedupOnly || p == AllOptimizations {
		pm.Add(
			passes.SinkSetupsIntoBranches(),
			passes.HoistLoopInvariantFields(),
			passes.Dedup(),
			passes.MergeSetups(),
			passes.RemoveEmptySetups(),
		)
	}
	if p == OverlapOnly || p == AllOptimizations {
		pm.Add(passes.Overlap(concurrent))
	}
	if p != Baseline {
		pm.Add(passes.Canonicalize(), passes.CSE())
	}
	// Target conversion (Figure 8, step 5), then post-lowering cleanups of
	// the emitted packing arithmetic (accfg flows only — the baseline
	// emits the packing verbatim, like Listing 1's macro expansion).
	pm.Add(lower.Accfg(t.Port))
	if p != Baseline {
		pm.Add(passes.LICM())
		pm.Add(passes.Canonicalize(), passes.CSE())
	}
	return pm
}

// Result captures one experiment run.
type Result struct {
	Target   string
	Workload string
	Pipeline Pipeline
	N        int
	sim.Counters
	// Verified confirms the simulated output matched the golden model.
	Verified bool
	// ProgramInstrs is the static size of the compiled program.
	ProgramInstrs int
	// PassStats carries the per-pass op-count log.
	PassStats []string
	// Trace holds the timeline of a traced Compiled.Execute, nil elsewhere.
	Trace []sim.Segment `json:"Trace,omitempty"`
	// PeakOps echoes the target's peak for convenience.
	PeakOps float64
}

// AttainableEq3 applies the paper's Figure 10 methodology: plug the
// measured effective configuration bandwidth and operation-to-configuration
// intensity into the sequential roofline (Eq. 3) as a proxy for attainable
// performance.
func (r Result) AttainableEq3() float64 {
	return roofline.Sequential(r.PeakOps, r.EffectiveConfigBW(), r.MeasuredIOC())
}

// Utilization returns measured ops/cycle as a fraction of peak.
func (r Result) Utilization() float64 {
	return r.OpsPerCycle() / r.PeakOps
}

// RunOptions is the part of a cell's name that is not the Experiment: every
// field changes the produced Result or must keep comparisons apart, so every
// field keys the Runner's memo (the cache key embeds this struct), the
// store fingerprint (FingerprintKey) and the serving wire (/v1/run
// parameters, serve.RunRequest). A knob that does not name a cell — how to
// route a request, whether to record a timeline — does not belong here;
// TestRunOptionsIsTheCellName fails a field that is added without all
// three. Tracing is Compiled.Execute's parameter.
type RunOptions struct {
	// Engine selects the simulator execution engine (default: the fast
	// engine). Both engines produce byte-identical results — the
	// differential oracle enforces it — but they are cached and
	// fingerprinted separately so cross-engine comparisons never serve
	// one engine's run to the other.
	Engine sim.Engine
}

const (
	memorySize = 64 << 20
	bufferBase = 1 << 20
	stackBase  = 60 << 20
)

// Layout places a program's data in a simulated memory. With Program.Start
// it is the cell ABI, spelled out here and nowhere else (DESIGN.md §1):
// argument buffers from BufferBase, each size rounded up to Align (a power
// of two; 1 packs them), static allocations after the last buffer, sp at
// StackBase with the spill frames growing up from it.
type Layout struct{ BufferBase, Align, StackBase uint64 }

// Program is a module's "main" compiled against a Layout: the host code and
// the addresses it was compiled for.
type Program struct {
	*riscv.Program
	Layout
	Bases      []uint64 // argument buffers, in signature order
	StaticBase uint64   // first memref.alloc, directly after the buffers
}

// place gives buffers of the given sizes their addresses under l.
func (l Layout) place(sizes []uint64) (Program, error) {
	p := Program{Layout: l, Bases: make([]uint64, len(sizes)), StaticBase: l.BufferBase}
	for i, size := range sizes {
		p.Bases[i] = p.StaticBase
		p.StaticBase += (size + l.Align - 1) &^ (l.Align - 1)
	}
	if p.StaticBase >= l.StackBase {
		return p, errors.New("buffers exceed simulated memory")
	}
	return p, nil
}

// compile lowers m's "main" with its statics after the placed buffers.
// Statics that reach the stack are an error: a store into them would land
// among the spill frames, the one region the oracle does not compare.
func (p *Program) compile(m *ir.Module) error {
	prog, statics, err := codegen.Compile(m, "main", codegen.Options{StaticBase: p.StaticBase})
	if err != nil {
		return err
	}
	p.Program = prog
	if end := p.StaticBase + statics.StaticSize; end > p.StackBase {
		return fmt.Errorf("static allocations exceed simulated memory: [%#x, %#x) reaches the stack at %#x", p.StaticBase, end, p.StackBase)
	}
	return nil
}

// CompileModule places buffers of the given sizes under l and compiles the
// already optimized module against them: the entry for a caller that brings
// its own module and inputs (the differential oracle). Cells use Compile.
func CompileModule(m *ir.Module, sizes []uint64, l Layout) (Program, error) {
	p, err := l.place(sizes)
	if err == nil {
		err = p.compile(m)
	}
	return p, err
}

// Start runs the program on mc, whose memory the caller has filled and whose
// cost model, device, engine and limits the caller has set: buffer i's base
// goes in a<i>, scalars in the registers after the last base, sp at the
// stack base.
func (p *Program) Start(mc *sim.Machine, scalars ...int64) error {
	for i, base := range p.Bases {
		mc.Regs[riscv.A0+riscv.Reg(i)] = int64(base)
	}
	for i, s := range scalars {
		mc.Regs[riscv.A0+riscv.Reg(len(p.Bases)+i)] = s
	}
	mc.Regs[riscv.SP] = int64(p.StackBase)
	return mc.Run(p.Program)
}

// arenas recycles the 64 MiB simulated memories. Allocating (and faulting
// in) the arena dominates the setup cost of small experiments, so cells
// reset one instead of allocating it: Memory.Reset zeroes only the pages
// the previous run dirtied. The machine around it is built fresh per cell,
// so nothing else outlives a run. The pooled arenas also keep the heap
// large enough that GC rarely runs: with a footprint-sized arena per cell
// instead, sweep_small lost 27-33% of its cells/s and GC ran 952 times in
// 3 s rather than 166 (DESIGN.md §8).
var arenas = sync.Pool{New: func() any { return mem.New(memorySize) }}

// RunTiledMatmul compiles the n x n tiled matmul for the target under the
// given pipeline, simulates it, verifies the result, and returns the
// measurements. It is the square-matmul convenience wrapper around Run.
func RunTiledMatmul(t Target, p Pipeline, n int, opts RunOptions) (Result, error) {
	w, err := LookupWorkload(WorkloadMatmul)
	if err != nil {
		return Result{}, err
	}
	return Run(t, w, p, n, opts)
}

// Run compiles the workload at size n for the target under the given
// pipeline, simulates it, verifies every checked buffer against the golden
// model, and returns the measurements. It is the engine's single
// experiment primitive; sweeps should go through Runner.
func Run(t Target, w Workload, p Pipeline, n int, opts RunOptions) (Result, error) {
	return run(t, w, p, n, opts, nil, nil)
}

// run is Run with the compile resumed from families and the device's
// launches looked up in launches first (nil: neither). A cell whose compile
// a sibling's tail served returns that Result without running anything, and
// one that runs offers its tail to the siblings still to come.
func run(t Target, w Workload, p Pipeline, n int, opts RunOptions, launches *accel.LaunchMemo, families *familyMemo) (Result, error) {
	f := families.family(t, w.Name, p, n, opts)
	c, err := compile(t, w, p, n, f)
	if err != nil {
		return Result{Target: t.Name, Workload: w.Name, Pipeline: p, N: n, PeakOps: t.PeakOps}, err
	}
	if c.Prog.Program == nil {
		return c.res, nil
	}
	res, err := c.execute(opts, false, launches)
	if err == nil {
		f.share(p, c.tail, res)
	}
	return res, err
}

// Compiled is a cell compiled and not yet run: what is a function of
// (target, workload, pipeline, n) alone. Nothing in it is written after
// Compile returns, so it may be executed any number of times, under any
// options and traced or not (a timeline is not part of a cell's name), from
// any number of goroutines.
type Compiled struct {
	Module  *ir.Module // after the pass pipeline: what codegen saw
	Prog    Program    // under the cell layout: what Execute runs
	target  Target
	buffers []Buffer // the instance's init and verify hooks
	res     Result   // what no run changes: the name, PeakOps, PassStats, ProgramInstrs
	// tail is the key a Runner's cell shares its run from the lowering on
	// under (zero elsewhere). A Runner's cell that a sibling's tail served
	// has no program, and res is its whole Result.
	tail tailKey
}

// Compile builds the workload at size n for the target, runs the pipeline
// over it and compiles it with its buffers packed from bufferBase: the half
// of Run that RunOptions do not reach.
func Compile(t Target, w Workload, p Pipeline, n int) (*Compiled, error) {
	return compile(t, w, p, n, nil)
}

// compile is Compile resuming from the deepest module the family f holds on
// p's pass list, publishing the module where a sibling pipeline that has
// not started forks from p, and, at p's lowering, taking the tail of a
// sibling that reached it with the same derivation (nil: build, and run
// every pass). One manager runs p span by span, from where it resumed to
// each stop and on to its end, so its Stats and Changed are p's whole log.
func compile(t Target, w Workload, p Pipeline, n int, f *family) (*Compiled, error) {
	pm := t.PassPipeline(p)
	defer f.reach(p)
	m, buffers := f.take(p, pm)
	if m == nil {
		inst, err := w.Build(t, n)
		if err != nil {
			return nil, err
		}
		m, buffers = inst.Module, inst.Buffers
		f.publish(p, 0, m, nil, nil, buffers)
	}
	var err error
	var tail tailKey
	at := len(pm.Stats)
	stops, lowering := f.stops(p)
	for _, d := range stops {
		if d > at {
			if err = pm.RunSpan(m, at, d); err != nil {
				break
			}
			at = d
			f.publish(p, d, m, pm.Stats, pm.Changed, nil)
		}
		if d == lowering {
			tail = f.forks.tailKey(p, pm.Changed)
			if res, ok := f.tail(tail); ok {
				res.Pipeline, res.PassStats = p, append(pm.Stats, res.PassStats...)
				return &Compiled{res: res}, nil
			}
		}
	}
	if err == nil {
		err = pm.RunSpan(m, at, pm.Len())
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline %s on %s/%s/%d: %w", p, t.Name, w.Name, n, err)
	}
	c := &Compiled{Module: m, target: t, buffers: buffers, tail: tail}
	sizes := make([]uint64, len(buffers))
	for i, buf := range buffers {
		sizes[i] = buf.Bytes
	}
	if c.Prog, err = (Layout{bufferBase, 1, stackBase}).place(sizes); err != nil {
		return nil, fmt.Errorf("workload %s/%d: %w", w.Name, n, err)
	}
	if err := c.Prog.compile(m); err != nil {
		return nil, fmt.Errorf("codegen for %s/%s/%d: %w", t.Name, w.Name, n, err)
	}
	c.res = Result{Target: t.Name, Workload: w.Name, Pipeline: p, N: n, PeakOps: t.PeakOps,
		PassStats: pm.Stats, ProgramInstrs: len(c.Prog.Instrs)}
	return c, nil
}

// Execute simulates the cell on a fresh machine over a pooled arena —
// buffers initialised, the program started through the cell ABI — and
// verifies every checked buffer against the golden model. With trace set,
// the Result carries the activity timeline (Figure 7; it costs memory in
// proportion to the run), which no other path records.
func (c *Compiled) Execute(opts RunOptions, trace bool) (Result, error) {
	return c.execute(opts, trace, nil)
}

// execute is Execute with the device's launches looked up in memo first
// (nil: none). A Runner passes its own memo and never traces; every other
// caller computes every launch.
func (c *Compiled) execute(opts RunOptions, trace bool, memo *accel.LaunchMemo) (Result, error) {
	memory := arenas.Get().(*mem.Memory)
	defer arenas.Put(memory)
	return c.simulate(memory, opts, trace, memo)
}

// simulate is execute on a memory of the caller's, which it resets first.
func (c *Compiled) simulate(memory *mem.Memory, opts RunOptions, trace bool, memo *accel.LaunchMemo) (Result, error) {
	res := c.res
	memory.Reset()
	for i, buf := range c.buffers {
		if buf.Init != nil {
			buf.Init(memory, c.Prog.Bases[i])
		}
	}
	mc := sim.NewMachine(memory, c.target.Cost, memo.Wrap(c.target.NewDevice()))
	mc.Engine = opts.Engine
	mc.RecordTrace = trace
	if err := c.Prog.Start(mc); err != nil {
		return res, fmt.Errorf("simulation of %s/%s/%s/%d: %w", res.Target, res.Workload, res.Pipeline, res.N, err)
	}
	// The machine is this cell's alone, so its trace is handed over as it
	// is: nil when untraced or empty.
	res.Counters, res.Trace = mc.Counters, mc.Trace

	checked := 0
	for i, buf := range c.buffers {
		if buf.Verify == nil {
			continue
		}
		if err := buf.Verify(memory, c.Prog.Bases[i]); err != nil {
			return res, fmt.Errorf("verification failed: %s/%s/%s/%d buffer %d: %w", res.Target, res.Workload, res.Pipeline, res.N, i, err)
		}
		checked++
	}
	// A workload with no Verify hooks was never compared against a
	// golden model; do not report it as verified.
	res.Verified = checked > 0
	return res, nil
}

// RooflineModel derives the target's analytical roofline model, computing
// the raw configuration bandwidth from the port and the host cost model the
// way the paper does for Gemmini (§4.6: 16 bytes per RoCC custom
// instruction, issued by a 3-cycles/instruction host with two
// register-setup instructions per custom op): bytes per write over host
// instructions per write times the cycles of one. A target without a port
// defaults to 1 B/cycle.
func (t Target) RooflineModel() roofline.Model {
	bw := 1.0
	if p := t.Port; p != nil {
		op := riscv.CUSTOM
		if p.Kind == accel.CSR {
			op = riscv.CSRRW
		}
		perInstr := float64(t.Cost.Cycles(riscv.Instr{Op: op}))
		bw = float64(p.Kind.WriteBytes()) / (float64(p.Kind.HostInstrs()) * perInstr)
	}
	return roofline.Model{
		Name:             t.Name,
		PeakOps:          t.PeakOps,
		BWConfig:         bw,
		BWMemory:         64, // wide tightly-coupled scratchpad port
		ConcurrentConfig: t.Concurrent(),
	}
}
