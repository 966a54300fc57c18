// Package difftest is the differential-verification oracle behind cmd/cwfuzz
// and the corpus regression tests: it lowers, compiles and co-simulates one
// generated accfg module (internal/irgen) through the Baseline pipeline and
// every optimization pipeline, then asserts that the optimized executions
// are observationally identical to the baseline —
//
//   - the final memory image (buffer arena and everything below the stack)
//     is byte-identical,
//   - the accelerator performed the identical sequence of launch effects
//     (same launch count, same ops and busy cycles per launch, in order),
//   - the IR verified cleanly after every pass (PassManager.VerifyEach),
//
// plus the paper's metamorphic claims —
//
//   - optimized pipelines never write more configuration traffic than the
//     baseline (except overlap software-pipelining on concurrent-config
//     hardware, whose loop prologue adds one bounded static setup), and
//   - optimized pipelines never run slower than the baseline (again modulo
//     a bounded allowance for overlap's prologue and dead final-iteration
//     staging writes on tiny jobs),
//
// plus the simulator's own engine-equivalence invariant (DESIGN.md §6) —
//
//   - every compiled program (baseline and each optimized pipeline)
//     executes identically on every registered simulator engine: the
//     reference interpreter and the predecoded fast engine must produce
//     the same Counters, the same final memory image, the same
//     summarized trace and the same launch effects.
//
// A failing case is a Divergence; the shrinker (shrink.go) reduces the
// module while the divergence reproduces.
package difftest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"configwall/internal/accel"
	"configwall/internal/analysis"
	"configwall/internal/core"
	"configwall/internal/ir"
	"configwall/internal/irgen"
	"configwall/internal/mem"
	"configwall/internal/sim"
	"configwall/internal/trace"
)

// Simulation arena: generated programs are tiny, so the oracle uses a 1 MiB
// memory (snapshot cost matters at campaign scale). Buffers sit from
// bufferBase; codegen statics follow; spill frames live at stackBase and are
// excluded from comparison (register allocation differs across pipelines).
const (
	memorySize = 1 << 20
	bufferBase = 0x1000
	stackBase  = 0xF0000
	maxInstrs  = 1 << 24
)

// Kind classifies a divergence.
type Kind int

// Divergence kinds, ordered roughly by detection stage.
const (
	KindNone Kind = iota
	// KindPipelineError: a pass or the between-pass verifier failed.
	KindPipelineError
	// KindCompileError: codegen rejected the optimized module.
	KindCompileError
	// KindSimError: the optimized binary faulted (bad device config,
	// out-of-range pc, instruction limit) while the baseline ran clean.
	KindSimError
	// KindMemory: final memory images differ.
	KindMemory
	// KindLaunchCount: the accelerator launched a different number of jobs.
	KindLaunchCount
	// KindLaunchEffect: some job performed different work (ops/cycles).
	KindLaunchEffect
	// KindConfigWrites: the optimized pipeline wrote more configuration
	// traffic than the baseline.
	KindConfigWrites
	// KindCycles: the optimized pipeline ran slower than allowed.
	KindCycles
	// KindEngine: the fast simulator engine disagreed with the reference
	// engine on the same compiled program (counters, final memory or
	// summarized trace) — a simulator bug, not a compiler bug.
	KindEngine
	// KindStatic: the static config-state checker proved the optimized
	// pre-lowering module diverges from the original program's intent; in
	// pre-oracle mode the case is reported without co-simulation.
	KindStatic
	// KindStaticBounds: the simulator's counters fell below the static
	// lower bounds (launch count / configuration writes) of the very module
	// that was executed — the analysis and the machine disagree about the
	// program.
	KindStaticBounds
	// KindStaticDisagree: the static verdict and the dynamic oracle
	// contradict each other — a proved-equivalent pipeline diverged
	// semantically, or a statically rejected one co-simulated clean.
	KindStaticDisagree
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindPipelineError:
		return "pipeline-error"
	case KindCompileError:
		return "compile-error"
	case KindSimError:
		return "sim-error"
	case KindMemory:
		return "memory-mismatch"
	case KindLaunchCount:
		return "launch-count"
	case KindLaunchEffect:
		return "launch-effect"
	case KindConfigWrites:
		return "config-write-regression"
	case KindCycles:
		return "cycle-regression"
	case KindEngine:
		return "engine-divergence"
	case KindStatic:
		return "static-reject"
	case KindStaticBounds:
		return "static-bounds"
	case KindStaticDisagree:
		return "static-disagree"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Divergence is one observed base/optimized disagreement.
type Divergence struct {
	Kind     Kind
	Pipeline core.Pipeline
	Detail   string
}

func (d Divergence) String() string {
	return fmt.Sprintf("[%s/%s] %s", d.Pipeline, d.Kind, d.Detail)
}

// Execution captures everything the oracle compares about one run.
type Execution struct {
	sim.Counters
	// Launches is the ordered launch-effect sequence.
	Launches []accel.Launch
	// Mem is the final [0, stackBase) memory image in canonical form:
	// trailing zero bytes dropped, every byte past its end reads as zero.
	// It is an owned copy; nothing in it aliases the sandbox.
	Mem []byte
	// TraceSummary aggregates the recorded timeline per segment kind.
	TraceSummary trace.Summary
	// ProgramInstrs is the compiled program size.
	ProgramInstrs int
}

// Options tunes a check. The engine cross-check, the static checker and the
// cycle allowance are not options: every check runs all of them (bench's
// dynamic-only probe calls Execute, which takes the cross-check as a
// parameter).
type Options struct {
	// Pipelines to compare against Baseline; nil selects every registered
	// optimization pipeline (dedup, overlap, all).
	Pipelines []core.Pipeline
	// Mutate, when set, is applied once per check, to the clone of the
	// module the *optimization* pipelines start from, before their passes
	// run — the hook the mutation tests use to model an intentionally
	// broken pass. Its error is every optimization pipeline's.
	Mutate func(m *ir.Module) error
	// Static selects what a static reject does to the rest of the check;
	// the zero value is StaticPreOracle.
	Static StaticMode
}

// StaticMode selects the static checker's role in a check.
type StaticMode int

const (
	// StaticPreOracle (the default) statically compares every optimized
	// pipeline's pre-lowering module against the original program first: a
	// proved divergence is reported as KindStatic without co-simulation
	// (the proof is the witness); accepted modules proceed to the dynamic
	// oracle, whose semantic outcome is then cross-checked against the
	// static verdict (KindStaticDisagree on contradiction).
	StaticPreOracle StaticMode = iota
	// StaticAudit always co-simulates, then cross-checks the static
	// verdict against the dynamic outcome — including for statically
	// rejected cases, where the dynamic oracle must agree. The corpus
	// replay runs in this mode.
	StaticAudit
)

// StaticOutcome records the static verdict for one pipeline of one check.
type StaticOutcome struct {
	Pipeline core.Pipeline
	// Verdict is the rendered analysis verdict ("reject: ...",
	// "accept (proved)", "accept (inconclusive: ...)").
	Verdict  string
	Rejected bool
	Proved   bool
	// SimSkipped marks pre-oracle rejects that never co-simulated.
	SimSkipped bool
	// Disagree marks contradictions with the dynamic oracle.
	Disagree bool
}

// cycleSlack bounds the overhead software pipelining may add on
// concurrent-configuration hardware: the loop prologue setup plus the dead
// final-iteration staging writes are static, bounded work that only pays
// off when jobs outlast configuration streams — on the fuzzer's deliberately
// tiny jobs it can lose a little. A real scheduling regression shows up far
// above base/4 + 512 on these programs. Non-overlap pipelines get no slack.
func cycleSlack(baseCycles uint64) uint64 { return baseCycles/4 + 512 }

// CorpusName renders the canonical corpus file name for a program, and
// ParseCorpusName inverts it: "<accelerator>-s<seed>.ir". cwfuzz writes
// minimized witnesses under this convention and the corpus regression test
// replays them; both sides share these helpers so the format cannot drift.
func CorpusName(accel string, seed int64) string {
	return fmt.Sprintf("%s-s%d.ir", accel, seed)
}

// ParseCorpusName splits a corpus file base name into accelerator and seed;
// ok is false for names outside the convention (including trailing garbage
// after the seed).
func ParseCorpusName(name string) (accel string, seed int64, ok bool) {
	base, found := strings.CutSuffix(name, ".ir")
	if !found {
		return "", 0, false
	}
	i := strings.LastIndex(base, "-s")
	if i < 1 { // also rejects an empty accelerator name
		return "", 0, false
	}
	seed, err := strconv.ParseInt(base[i+2:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return base[:i], seed, true
}

// Replay re-checks one corpus module file against the exact inputs that
// exposed it: the accelerator and seed come from the file name, the module
// from its contents. Both the cwfuzz -replay flag and the corpus
// regression test go through here, so replay semantics cannot drift.
func Replay(path string, opts Options) (Report, error) {
	accel, seed, ok := ParseCorpusName(filepath.Base(path))
	if !ok {
		return Report{}, fmt.Errorf("difftest: corpus file %q must be named <accel>-s<seed>.ir", path)
	}
	tgt, err := core.LookupTarget(accel)
	if err != nil {
		return Report{}, err
	}
	prof, err := irgen.ProfileFor(accel)
	if err != nil {
		return Report{}, err
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		return Report{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	if err := ir.Verify(m); err != nil {
		return Report{}, fmt.Errorf("%s does not verify: %w", path, err)
	}
	bufs, p := irgen.InputsFor(prof, seed)
	prog := irgen.Program{Accel: accel, Seed: seed, Module: m, Buffers: bufs, P: p}
	return Check(tgt, prog, opts), nil
}

// OptimizationPipelines lists the registered non-baseline pipelines.
func OptimizationPipelines() []core.Pipeline {
	var out []core.Pipeline
	for _, p := range core.Pipelines {
		if p != core.Baseline {
			out = append(out, p)
		}
	}
	return out
}

// hasOverlap reports whether the pipeline schedules configuration overlap.
func hasOverlap(p core.Pipeline) bool {
	return p == core.OverlapOnly || p == core.AllOptimizations
}

// Report is the outcome of checking one program.
type Report struct {
	Target string
	Seed   int64
	// Invalid marks programs whose *baseline* failed to compile or run —
	// the oracle then has no reference; campaigns count these separately
	// and treat any occurrence as a failure of the generator contract.
	Invalid       bool
	InvalidReason string
	// Base carries the baseline execution for metamorphic context.
	Base Execution
	// Divergences lists every base/optimized disagreement found.
	Divergences []Divergence
	// Static lists the static checker's verdict per pipeline.
	Static []StaticOutcome
}

// Diverged reports whether any pipeline disagreed with the baseline.
func (r Report) Diverged() bool { return len(r.Divergences) > 0 }

// Check generates nothing: it takes a ready program and compares Baseline
// against every requested pipeline.
func Check(t core.Target, prog irgen.Program, opts Options) Report {
	return CheckModule(t, prog.Module, prog, opts)
}

// CheckModule is Check with an explicit module (the shrinker calls it with
// reduced clones while keeping the program's inputs).
func CheckModule(t core.Target, m *ir.Module, prog irgen.Program, opts Options) Report {
	rep := Report{Target: t.Name, Seed: prog.Seed}
	pipelines := opts.Pipelines
	if pipelines == nil {
		pipelines = OptimizationPipelines()
	}
	baseSum := analysis.Explore(m)
	sandbox := sandboxes.Get().(*mem.Memory)
	defer sandboxes.Put(sandbox)

	var baseBounds analysis.Bounds
	baseFinal, err := runPasses(m, t.PassPipeline(core.Baseline), nil, func(pre *ir.Module) {
		baseBounds = analysis.StaticBounds(pre)
	})
	kind := KindPipelineError
	var base Execution
	if err == nil {
		base, kind, err = executeCompiled(t, baseFinal, prog, true, sandbox)
	}
	if err != nil {
		if kind != KindEngine {
			rep.Invalid = true
			rep.InvalidReason = fmt.Sprintf("baseline %s: %v", kind, err)
			return rep
		}
		// The reference run succeeded and stays authoritative; the fast
		// engine disagreeing with it is a divergence in its own right.
		rep.Divergences = append(rep.Divergences, Divergence{Kind: kind, Pipeline: core.Baseline, Detail: err.Error()})
	}
	rep.Base = base
	if d := boundsViolation(core.Baseline, baseBounds, base); d != nil {
		rep.Divergences = append(rep.Divergences, *d)
	}

	pms := make([]*ir.PassManager, len(pipelines))
	for i, p := range pipelines {
		pms[i] = t.PassPipeline(p)
	}
	tree := newPassTree(m, pms, opts.Mutate)
	for i, p := range pipelines {
		var sum *analysis.Summary
		var bounds analysis.Bounds
		final, err := tree.run(i, func(pre *ir.Module) {
			sum, bounds = analysis.Explore(pre), analysis.StaticBounds(pre)
		})
		if err != nil {
			rep.Divergences = append(rep.Divergences, Divergence{Kind: KindPipelineError, Pipeline: p, Detail: err.Error()})
			continue
		}

		// Static verdict first: in pre-oracle mode a proved divergence is
		// its own witness and the case never co-simulates; anything the
		// analysis accepted (or audit mode) proceeds to the dynamic oracle,
		// whose semantic outcome is cross-checked against the verdict.
		v := analysis.CompareSummaries(baseSum, sum)
		rep.Static = append(rep.Static, StaticOutcome{
			Pipeline: p, Verdict: v.String(), Rejected: v.Rejected(), Proved: v.Proved(),
		})
		out := &rep.Static[len(rep.Static)-1]
		if out.Rejected && opts.Static == StaticPreOracle {
			out.SimSkipped = true
			rep.Divergences = append(rep.Divergences, Divergence{Kind: KindStatic, Pipeline: p, Detail: v.String()})
			continue
		}

		exec, kind, err := executeCompiled(t, final, prog, true, sandbox)
		if err != nil {
			rep.Divergences = append(rep.Divergences, Divergence{Kind: kind, Pipeline: p, Detail: err.Error()})
			if kind != KindEngine {
				continue
			}
			// Engine divergences leave the reference execution intact:
			// still compare it against the baseline below.
		}
		semantic := compare(t, p, base, exec)
		rep.Divergences = append(rep.Divergences, semantic...)

		if d := boundsViolation(p, bounds, exec); d != nil {
			rep.Divergences = append(rep.Divergences, *d)
		}
		dynDiverged := hasSemanticDivergence(semantic)
		switch {
		case out.Rejected && !dynDiverged:
			out.Disagree = true
			rep.Divergences = append(rep.Divergences, Divergence{Kind: KindStaticDisagree, Pipeline: p,
				Detail: fmt.Sprintf("statically rejected but co-simulated clean: %s", out.Verdict)})
		case out.Proved && dynDiverged:
			out.Disagree = true
			rep.Divergences = append(rep.Divergences, Divergence{Kind: KindStaticDisagree, Pipeline: p,
				Detail: fmt.Sprintf("statically proved equivalent but diverged dynamically (%s)", semantic[0].Kind)})
		}
	}
	return rep
}

// boundsViolation checks one execution against the static lower bounds of
// the very pre-lowering module that was executed: the machine may never do
// less work than the analysis proved unavoidable.
func boundsViolation(p core.Pipeline, b analysis.Bounds, exec Execution) *Divergence {
	if len(exec.Launches) < b.MinLaunches || exec.ConfigInstrs < uint64(b.MinConfigInstrs) {
		return &Divergence{Kind: KindStaticBounds, Pipeline: p,
			Detail: fmt.Sprintf("executed %d launches / %d config instrs, static lower bounds %d / %d",
				len(exec.Launches), exec.ConfigInstrs, b.MinLaunches, b.MinConfigInstrs)}
	}
	return nil
}

// hasSemanticDivergence reports whether the dynamic oracle observed a true
// behavioral difference (as opposed to a metamorphic or engine finding) —
// the outcomes the static verdict speaks to.
func hasSemanticDivergence(divs []Divergence) bool {
	for _, d := range divs {
		switch d.Kind {
		case KindMemory, KindLaunchCount, KindLaunchEffect:
			return true
		}
	}
	return false
}

// Execute clones m, runs the pass pipeline, compiles and simulates it with
// the program's inputs, returning the observation. On failure the Kind
// reports which stage failed. With crossCheck set, the compiled program
// additionally runs on every non-reference simulator engine, and any
// disagreement with the reference observation (Counters, final memory,
// summarized trace, launch effects) returns a KindEngine error alongside
// the still valid reference Execution.
func Execute(t core.Target, m *ir.Module, prog irgen.Program, pm *ir.PassManager, mutate func(*ir.Module) error, crossCheck bool) (Execution, Kind, error) {
	clone, err := runPasses(m, pm, mutate, nil)
	if err != nil {
		return Execution{}, KindPipelineError, err
	}
	sandbox := sandboxes.Get().(*mem.Memory)
	defer sandboxes.Put(sandbox)
	return executeCompiled(t, clone, prog, crossCheck, sandbox)
}

// runPasses clones m, applies the optional mutation and runs the pipeline
// on the clone: a pass tree of one pipeline.
func runPasses(m *ir.Module, pm *ir.PassManager, mutate func(*ir.Module) error, preLower func(*ir.Module)) (*ir.Module, error) {
	return newPassTree(m, []*ir.PassManager{pm}, mutate).run(0, preLower)
}

// passTree runs a family of pipelines over one module, each run of leading
// passes they share once. The first pipeline starts from a clone of the
// module with the mutation applied; every later pipeline i resumes from a
// checkpoint on src[i], the earliest earlier pipeline with which it shares
// the longest run of pass names (depth[i] passes, ir.SharedPrefix). Taking
// the earliest of equals keeps depth[i] >= depth[src[i]], so the checkpoint
// lies on the part of src[i]'s path that src[i] runs itself. Sharing stops
// before the first lower-* pass: every pipeline reaches its own
// pre-lowering module (TestPassTreeMatchesSeparateRuns).
type passTree struct {
	root   *ir.Module
	mutate func(*ir.Module) error
	pms    []*ir.PassManager
	names  [][]string
	heads  []int // passes before each pipeline's first lower-*
	src    []int // the pipeline each resumes from; -1 for the first
	depth  []int // passes each shares with its src
	// start holds the module each pipeline resumes from once its src has
	// passed depth, err the failure it inherits when its src never did.
	start []*ir.Module
	err   []error
}

func newPassTree(m *ir.Module, pms []*ir.PassManager, mutate func(*ir.Module) error) *passTree {
	n := len(pms)
	tr := &passTree{root: m, mutate: mutate, pms: pms, names: make([][]string, n), heads: make([]int, n),
		src: make([]int, n), depth: make([]int, n), start: make([]*ir.Module, n), err: make([]error, n)}
	names := tr.names
	for i, pm := range pms {
		names[i] = pm.Passes()
		tr.heads[i] = ir.SharedPrefix(names[i], names[i])
		tr.src[i] = -1
		for j := range i {
			d := ir.SharedPrefix(names[i], names[j])
			if tr.src[i] < 0 || d > tr.depth[i] {
				tr.src[i], tr.depth[i] = j, d
			}
		}
	}
	return tr
}

// run returns pipeline i's final module; pipelines run in order. It runs
// the passes i does not share with its src, handing a clone to every later
// pipeline that resumes from i where i passes its depth. preLower, when set,
// is handed the live module as it stands entering the first lower-* pass
// (or the final module when the pipeline never lowers), the last point
// where accfg launches are still visible to the static checker. It must
// read what it needs and keep no pointer into the module, which the
// remaining passes go on to rewrite. A failure is also the failure of every
// later pipeline still waiting on i: they share the pass that failed.
func (tr *passTree) run(i int, preLower func(*ir.Module)) (*ir.Module, error) {
	m, err := tr.start[i], tr.err[i]
	tr.start[i] = nil
	if i == 0 {
		m = tr.root.Clone()
		if tr.mutate != nil {
			if merr := tr.mutate(m); merr != nil {
				err = fmt.Errorf("mutate: %w", merr)
			}
		}
	}
	at := tr.depth[i]
	if err == nil {
		tr.pass(i, at, m, preLower)
		_, rest := tr.pms[i].Split(at)
		for end, d := len(tr.names[i]), at+1; d <= end; d++ {
			if d < end && d != tr.heads[i] && !tr.waitedOn(i, d) {
				continue
			}
			var seg *ir.PassManager
			seg, rest = rest.Split(d - at)
			if err = seg.Run(m); err != nil {
				break
			}
			at = d
			tr.pass(i, at, m, preLower)
		}
	}
	if err != nil {
		for j := i + 1; j < len(tr.pms); j++ {
			if tr.src[j] == i && tr.start[j] == nil {
				tr.err[j] = err
			}
		}
		return nil, err
	}
	return m, nil
}

// pass is pipeline i passing depth d with module m: every pipeline that
// resumes there gets its own clone, and preLower sees m at i's head.
func (tr *passTree) pass(i, d int, m *ir.Module, preLower func(*ir.Module)) {
	for j := i + 1; j < len(tr.pms); j++ {
		if tr.src[j] == i && tr.depth[j] == d {
			tr.start[j] = m.Clone()
		}
	}
	if d == tr.heads[i] && preLower != nil {
		preLower(m)
	}
}

// waitedOn reports whether a later pipeline resumes from i at depth d.
func (tr *passTree) waitedOn(i, d int) bool {
	for j := i + 1; j < len(tr.pms); j++ {
		if tr.src[j] == i && tr.depth[j] == d {
			return true
		}
	}
	return false
}

// sandboxes recycles the oracle's 1 MiB arenas across checks: CheckModule
// and Execute each take one and put it back when they return, and every
// engine run of a program starts from it with Reset, which zeroes only the
// pages the previous run dirtied. Isolation between checks rests on the
// Reset contract the eight runs of one check already rest on
// (TestReusedSandboxIndistinguishableFromFresh); nothing in a Report
// aliases the arena, since Execution.Mem is an owned copy.
var sandboxes = sync.Pool{New: func() any { return mem.New(memorySize) }}

// compileProgram compiles the already-optimized module against the oracle's
// layout: buffers 64-byte aligned from bufferBase, statics after them, sp at
// stackBase. It differs from the cell's packed layout on purpose — minimized
// witnesses print addresses, and these are the ones the corpus was recorded
// under. Placement and the register convention are core's (the cell ABI).
func compileProgram(clone *ir.Module, prog irgen.Program) (core.Program, error) {
	sizes := make([]uint64, len(prog.Buffers))
	for i, buf := range prog.Buffers {
		sizes[i] = buf.Bytes
	}
	return core.CompileModule(clone, sizes, core.Layout{BufferBase: bufferBase, Align: 64, StackBase: stackBase})
}

// executeCompiled compiles and simulates one already-optimized module in
// the check's sandbox.
func executeCompiled(t core.Target, clone *ir.Module, prog irgen.Program, crossCheck bool, sandbox *mem.Memory) (Execution, Kind, error) {
	compiled, err := compileProgram(clone, prog)
	if err != nil {
		return Execution{}, KindCompileError, err
	}

	// Trace recording is only needed for the summarized-trace comparison
	// between engines; the plain oracle path skips its cost.
	ref, err := simulate(t, prog, &compiled, sim.EngineRef, crossCheck, sandbox)
	if err != nil {
		return Execution{}, KindSimError, err
	}
	if crossCheck {
		for _, eng := range sim.Engines {
			if eng == sim.EngineRef {
				continue
			}
			alt, err := simulate(t, prog, &compiled, eng, true, sandbox)
			if err != nil {
				return ref, KindEngine, fmt.Errorf("%s engine failed where the reference engine succeeded: %w", eng, err)
			}
			if err := equalExecutions(ref, alt, eng.String()); err != nil {
				return ref, KindEngine, err
			}
		}
	}
	return ref, KindNone, nil
}

// simulate runs one compiled program under the selected engine and captures
// the oracle observation. The memory is the check's sandbox, reset here to
// the all-zero state a new one has; the machine, the device and the launch
// recorder are new for every run. The program starts through the cell ABI
// (core.Program.Start) with the program's scalar P after its buffers.
func simulate(t core.Target, prog irgen.Program, compiled *core.Program, engine sim.Engine, recordTrace bool, memory *mem.Memory) (Execution, error) {
	memory.Reset()
	for i, buf := range prog.Buffers {
		copy(memory.Region(compiled.Bases[i], uint64(len(buf.Data))), buf.Data)
	}

	rec := &recorder{Device: t.NewDevice()}
	mc := sim.NewMachine(memory, t.Cost, rec)
	mc.Engine = engine
	mc.RecordTrace = recordTrace
	mc.MaxInstrs = maxInstrs
	if err := compiled.Start(mc, prog.P); err != nil {
		return Execution{}, err
	}

	// Everything from the last dirty page up to the stack is still zero by
	// Reset's contract, so the image is read from the written part only and
	// copied up to its last nonzero byte.
	img := trimZeros(memory.View(0, memory.DirtyEnd(stackBase)))
	return Execution{
		Counters:      mc.Counters,
		Launches:      rec.launches,
		Mem:           memory.Snapshot(0, uint64(len(img))),
		TraceSummary:  trace.Summarize(mc.Trace),
		ProgramInstrs: len(compiled.Instrs),
	}, nil
}

// equalExecutions asserts the engine-equivalence invariant: the named
// engine must reproduce the reference observation exactly.
func equalExecutions(ref, got Execution, engine string) error {
	if ref.Counters != got.Counters {
		return fmt.Errorf("engines disagree on counters: ref %+v, %s %+v", ref.Counters, engine, got.Counters)
	}
	if len(ref.Launches) != len(got.Launches) {
		return fmt.Errorf("engines disagree on launch count: ref %d, %s %d", len(ref.Launches), engine, len(got.Launches))
	}
	for i := range ref.Launches {
		if ref.Launches[i] != got.Launches[i] {
			return fmt.Errorf("engines disagree on launch %d: ref %+v, %s %+v", i, ref.Launches[i], engine, got.Launches[i])
		}
	}
	if addr, ok := firstMemDiff(ref.Mem, got.Mem); ok {
		return fmt.Errorf("engines disagree on memory at %#x: ref %#02x, %s %#02x", addr, byteAt(ref.Mem, addr), engine, byteAt(got.Mem, addr))
	}
	if ref.TraceSummary != got.TraceSummary {
		return fmt.Errorf("engines disagree on trace summary: ref %+v, %s %+v", ref.TraceSummary, engine, got.TraceSummary)
	}
	return nil
}

// compare asserts the oracle invariants of one optimized execution against
// the baseline.
func compare(t core.Target, p core.Pipeline, base, opt Execution) []Divergence {
	var divs []Divergence

	if len(opt.Launches) != len(base.Launches) {
		divs = append(divs, Divergence{Kind: KindLaunchCount, Pipeline: p,
			Detail: fmt.Sprintf("launches: base %d, optimized %d", len(base.Launches), len(opt.Launches))})
	} else {
		for i := range base.Launches {
			if base.Launches[i] != opt.Launches[i] {
				divs = append(divs, Divergence{Kind: KindLaunchEffect, Pipeline: p,
					Detail: fmt.Sprintf("launch %d: base {ops %d, cycles %d}, optimized {ops %d, cycles %d}",
						i, base.Launches[i].Ops, base.Launches[i].Cycles, opt.Launches[i].Ops, opt.Launches[i].Cycles)})
				break
			}
		}
	}

	if addr, ok := firstMemDiff(base.Mem, opt.Mem); ok {
		divs = append(divs, Divergence{Kind: KindMemory, Pipeline: p,
			Detail: fmt.Sprintf("memory differs at %#x: base %#02x, optimized %#02x", addr, byteAt(base.Mem, addr), byteAt(opt.Mem, addr))})
	}

	// Metamorphic bounds. Overlap software-pipelining on concurrent-config
	// hardware legitimately adds one prologue setup per pipelined loop; all
	// other pipelines must strictly shrink configuration traffic and time.
	overlapping := hasOverlap(p) && t.Concurrent()
	if !overlapping {
		if opt.ConfigInstrs > base.ConfigInstrs || opt.ConfigBytes > base.ConfigBytes {
			divs = append(divs, Divergence{Kind: KindConfigWrites, Pipeline: p,
				Detail: fmt.Sprintf("config writes grew: base %d instrs/%d B, optimized %d instrs/%d B",
					base.ConfigInstrs, base.ConfigBytes, opt.ConfigInstrs, opt.ConfigBytes)})
		}
		if opt.Cycles > base.Cycles {
			divs = append(divs, Divergence{Kind: KindCycles, Pipeline: p,
				Detail: fmt.Sprintf("cycles grew: base %d, optimized %d", base.Cycles, opt.Cycles)})
		}
	} else if allowed := base.Cycles + cycleSlack(base.Cycles); opt.Cycles > allowed {
		divs = append(divs, Divergence{Kind: KindCycles, Pipeline: p,
			Detail: fmt.Sprintf("cycles grew past the overlap allowance: base %d, allowed %d, optimized %d",
				base.Cycles, allowed, opt.Cycles)})
	}

	return divs
}

// firstMemDiff returns the first offset at which two memory images differ.
// An image ends where its trailing zeros were dropped, so bytes past the end
// of the shorter one compare as zero: the comparison, not the producer, owns
// the canonical form, and images of unequal length can be equal.
func firstMemDiff(a, b []byte) (int, bool) {
	if bytes.Equal(a, b) {
		return 0, false
	}
	for i, n := 0, max(len(a), len(b)); i < n; i++ {
		if byteAt(a, i) != byteAt(b, i) {
			return i, true
		}
	}
	return 0, false
}

// byteAt reads one byte of a memory image; past its end the image is zero.
func byteAt(img []byte, i int) byte {
	if i < len(img) {
		return img[i]
	}
	return 0
}

// trimZeros drops the trailing zero bytes of img, a word at a time while it
// can: the last dirty page is mostly zeros above the program's statics.
func trimZeros(img []byte) []byte {
	n := len(img)
	for n >= 8 && binary.LittleEndian.Uint64(img[n-8:n]) == 0 {
		n -= 8
	}
	for n > 0 && img[n-1] == 0 {
		n--
	}
	return img[:n]
}

// recorder wraps a device to capture the launch-effect sequence.
type recorder struct {
	accel.Device
	launches []accel.Launch
}

func (r *recorder) Launch(m *mem.Memory) (accel.Launch, error) {
	job, err := r.Device.Launch(m)
	if err == nil {
		r.launches = append(r.launches, job)
	}
	return job, err
}
