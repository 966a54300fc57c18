package main

import (
	"fmt"
	"sync"
	"time"

	"configwall/internal/accel"
	"configwall/internal/codegen"
	"configwall/internal/core"
	"configwall/internal/ir"
	"configwall/internal/irgen"
	"configwall/internal/mem"
	"configwall/internal/riscv"
	"configwall/internal/sim"
)

// The memory map core.Run gives every cell. The replica below must lay a
// cell out the same way or its counters differ from the real call's, which
// the traced run checks.
const (
	memorySize = 64 << 20
	bufferBase = 1 << 20
	stackBase  = 60 << 20
)

// arenas hands each worker a simulated memory the benchmark owns and
// reuses, as core.Run reuses its pooled contexts.
type arenas chan *mem.Memory

func newArenas() arenas {
	a := make(arenas, workers)
	for i := 0; i < workers; i++ {
		a <- mem.New(memorySize)
	}
	return a
}

// timedDevice times the launches of the device it wraps.
type timedDevice struct {
	accel.Device
	first time.Time
	total time.Duration
	count int
}

func (d *timedDevice) Launch(m *mem.Memory) (accel.Launch, error) {
	t0 := time.Now()
	l, err := d.Device.Launch(m)
	d.total += time.Since(t0)
	if d.count == 0 {
		d.first = t0
	}
	d.count++
	return l, err
}

// compiled is a program ready to simulate: how to fill its buffers and
// which argument registers to pass.
type compiled struct {
	target core.Target
	prog   *riscv.Program
	load   func(m *mem.Memory)
	args   []int64
}

// execution is what one simulation of a compiled program measured.
type execution struct {
	sim.Counters
	run time.Duration // Machine.Run
	dev *timedDevice
}

// exec simulates c on a fresh machine over memory, which the caller has
// reset and loaded.
func (c compiled) exec(memory *mem.Memory, eng sim.Engine) (execution, error) {
	dev := &timedDevice{Device: c.target.NewDevice()}
	mc := sim.NewMachine(memory, c.target.Cost, dev)
	mc.Engine = eng
	for i, v := range c.args {
		mc.Regs[riscv.A0+riscv.Reg(i)] = v
	}
	mc.Regs[riscv.SP] = stackBase
	t0 := time.Now()
	err := mc.Run(c.prog)
	return execution{Counters: mc.Counters, run: time.Since(t0), dev: dev}, err
}

// place lays buffers of the given sizes out from bufferBase, each aligned
// to align bytes, and returns their bases and the first free address.
func place(sizes []uint64, align uint64) (bases []int64, next uint64, err error) {
	next = bufferBase
	for _, b := range sizes {
		bases = append(bases, int64(next))
		next += (b + align - 1) &^ (align - 1)
	}
	if next >= stackBase {
		return nil, 0, fmt.Errorf("buffers exceed simulated memory")
	}
	return bases, next, nil
}

// cellParts resolves a cell's target and workload and builds its instance.
func cellParts(e core.Experiment) (core.Target, core.Instance, error) {
	t, err := core.LookupTarget(e.Target)
	if err != nil {
		return t, core.Instance{}, err
	}
	w, err := core.LookupWorkload(e.Workload)
	if err != nil {
		return t, core.Instance{}, err
	}
	inst, err := w.Build(t, e.N)
	return t, inst, err
}

// compileCell turns a cell's optimized module into a compiled program,
// laid out as core.Run lays it out.
func compileCell(t core.Target, inst core.Instance) (compiled, error) {
	sizes := make([]uint64, len(inst.Buffers))
	for i, b := range inst.Buffers {
		sizes[i] = b.Bytes
	}
	bases, static, err := place(sizes, 1)
	if err != nil {
		return compiled{}, err
	}
	prog, _, err := codegen.Compile(inst.Module, "main", codegen.Options{StaticBase: static})
	if err != nil {
		return compiled{}, err
	}
	load := func(m *mem.Memory) {
		for i, b := range inst.Buffers {
			if b.Init != nil {
				b.Init(m, uint64(bases[i]))
			}
		}
	}
	return compiled{target: t, prog: prog, load: load, args: bases}, nil
}

// verifyCell checks every checked buffer against the golden model.
func verifyCell(inst core.Instance, c compiled, memory *mem.Memory) (bool, error) {
	checked := 0
	for i, b := range inst.Buffers {
		if b.Verify == nil {
			continue
		}
		if err := b.Verify(memory, uint64(c.args[i])); err != nil {
			return false, err
		}
		checked++
	}
	return checked > 0, nil
}

// replicaRun is core.Run made of the same public calls, with a span around
// each, on a benchmark-owned memory. It exists because the layers of a
// cell are inside core.Run, where a benchmark that may not edit the
// program cannot put a span. core.replica_gap_ratio states how far the sum
// of its parts is from the real call, and the counters it returns are
// checked against the real call's.
func replicaRun(rec *recorder, memory *mem.Memory, e core.Experiment) (core.Result, error) {
	res := core.Result{Target: e.Target, Workload: e.Workload, Pipeline: e.Pipeline, N: e.N}
	root := rec.begin("op", -1, -1)
	defer rec.end(root)
	step := func(name string, fn func() error) error {
		id := rec.begin(name, root, root)
		defer rec.end(id)
		return fn()
	}

	var t core.Target
	var inst core.Instance
	if err := step("workload.build", func() (err error) { t, inst, err = cellParts(e); return }); err != nil {
		return res, err
	}
	pm := t.PassPipeline(e.Pipeline)
	if err := step("passes.pipeline", func() error { return pm.Run(inst.Module) }); err != nil {
		return res, err
	}
	var c compiled
	if err := step("codegen.compile", func() (err error) { c, err = compileCell(t, inst); return }); err != nil {
		return res, err
	}
	res.ProgramInstrs = len(c.prog.Instrs)
	step("mem.reset", func() error { memory.Reset(); return nil })
	step("workload.init", func() error { c.load(memory); return nil })
	memory.ResetCounters()

	id := rec.begin("sim.run", root, root)
	x, err := c.exec(memory, core.RunOptions{}.Engine)
	rec.end(id)
	rec.coalesced("accel.launch", root, id, x.dev.first, x.dev.total, x.dev.count)
	if err != nil {
		return res, err
	}
	res.Counters = x.Counters
	return res, step("workload.verify", func() (err error) { res.Verified, err = verifyCell(inst, c, memory); return })
}

// layerProbe collects, per metric name, one sample from each operation it
// probes: measurements a traced block cannot take because they need a
// second run of something the operation runs once.
type layerProbe struct {
	mu      sync.Mutex
	samples map[string][]float64
	failed  int
}

func newLayerProbe() *layerProbe { return &layerProbe{samples: map[string][]float64{}} }

func (p *layerProbe) add(name string, v float64) {
	p.mu.Lock()
	p.samples[name] = append(p.samples[name], v)
	p.mu.Unlock()
}

// report writes the median of every metric's samples.
func (p *layerProbe) report(m map[string]float64) {
	for name, xs := range p.samples {
		m[name] = median(xs)
	}
}

// probeEngines simulates c once on every engine of sim.Engines, each on a
// fresh machine over reloaded memory. The run on the default engine also
// gives the simulation's split and exact counts; an engine whose counters
// differ from the first engine's is a failure.
func (p *layerProbe) probeEngines(c compiled, memory *mem.Memory) error {
	var want sim.Counters
	for i, eng := range sim.Engines {
		memory.Reset()
		c.load(memory)
		memory.ResetCounters()
		x, err := c.exec(memory, eng)
		if err != nil {
			return fmt.Errorf("engine %s: %w", eng, err)
		}
		if i == 0 {
			want = x.Counters
		} else if x.Counters != want {
			p.mu.Lock()
			p.failed++
			p.mu.Unlock()
		}
		p.add("sim."+eng.String()+"_run_ns", float64(x.run))
		if eng == (core.RunOptions{}).Engine {
			p.add("sim.run_ns", float64(x.run))
			p.add("sim.self_ns", float64(x.run-x.dev.total))
			p.add("accel.launch_ns", float64(x.dev.total))
			p.add("sim.host_instrs", float64(x.HostInstrs))
			p.add("accel.launches", float64(x.Launches))
			p.add("accel.config_writes", float64(x.ConfigInstrs))
			p.add("accel.config_bytes", float64(x.ConfigBytes))
			p.add("codegen.instrs", float64(len(c.prog.Instrs)))
		}
	}
	return nil
}

// probeCell measures, for one cell, the pass pipeline with per-pass
// verification off (the other half of passes.pipeline_ns), the module size
// before and after it, and every engine on the compiled result.
func (p *layerProbe) probeCell(e core.Experiment, memory *mem.Memory) error {
	t, inst, err := cellParts(e)
	if err != nil {
		return err
	}
	pm := t.PassPipeline(e.Pipeline)
	pm.VerifyEach = false
	p.add("ir.ops_in", float64(ir.CountOps(inst.Module)))
	t0 := time.Now()
	if err := pm.Run(inst.Module); err != nil {
		return err
	}
	p.add("passes.noverify_ns", float64(time.Since(t0)))
	p.add("passes.count", float64(len(pm.Passes())))
	p.add("ir.ops_out", float64(ir.CountOps(inst.Module)))
	c, err := compileCell(t, inst)
	if err != nil {
		return err
	}
	return p.probeEngines(c, memory)
}

// probeProgram compiles one generated program under the baseline pipeline,
// as the oracle does first, and runs it on every engine.
func (p *layerProbe) probeProgram(fc fuzzCase, memory *mem.Memory) error {
	prog, err := irgen.Generate(fc.prof, fc.seed)
	if err != nil {
		return err
	}
	if err := fc.target.PassPipeline(core.Baseline).Run(prog.Module); err != nil {
		return err
	}
	sizes := make([]uint64, len(prog.Buffers))
	for i, b := range prog.Buffers {
		sizes[i] = b.Bytes
	}
	bases, static, err := place(sizes, 64)
	if err != nil {
		return err
	}
	code, _, err := codegen.Compile(prog.Module, "main", codegen.Options{StaticBase: static})
	if err != nil {
		return err
	}
	load := func(m *mem.Memory) {
		for i, b := range prog.Buffers {
			for j, v := range b.Data {
				m.Write8(uint64(bases[i])+uint64(j), v)
			}
		}
	}
	return p.probeEngines(compiled{target: fc.target, prog: code, load: load, args: append(bases, prog.P)}, memory)
}
