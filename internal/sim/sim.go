// Package sim is the co-simulator: it executes host RV64-subset programs
// with a pluggable cycle cost model, coupled to one accelerator device. It
// reproduces the timing structure the paper analyses — host configuration
// time, host/accelerator stalls, and the sequential-vs-concurrent
// configuration schemes — and exposes the counters the configuration
// roofline needs (configuration bytes, setup vs calculation cycles,
// accelerator ops and busy cycles).
package sim

import (
	"fmt"
	"strings"

	"configwall/internal/accel"
	"configwall/internal/mem"
	"configwall/internal/riscv"
)

// Counters aggregates the measurements of one simulation run.
type Counters struct {
	// Cycles is the total wall-clock duration of the run.
	Cycles uint64
	// HostInstrs counts executed host instructions.
	HostInstrs uint64
	// HostCycles counts cycles the host spent executing instructions.
	HostCycles uint64
	// StallCycles counts cycles the host was blocked on the accelerator
	// (sequential-configuration stalls and launch-while-busy waits).
	StallCycles uint64
	// ConfigInstrs counts configuration-interface writes.
	ConfigInstrs uint64
	// ConfigBytes counts configuration bytes transferred (paper's
	// N_config_bytes).
	ConfigBytes uint64
	// ConfigCycles counts host cycles on configuration writes (T_set).
	ConfigCycles uint64
	// SyncCycles counts host cycles on fences and busy polls.
	SyncCycles uint64
	// CalcCycles counts all remaining host cycles (the paper's T_calc:
	// parameter calculation, loop control, addressing).
	CalcCycles uint64
	// AccelOps counts useful accelerator operations performed.
	AccelOps uint64
	// AccelBusyCycles counts cycles the accelerator was computing.
	AccelBusyCycles uint64
	// Launches counts accelerator launches.
	Launches uint64
}

// OpsPerCycle returns the measured performance P = ops / total cycles.
func (c Counters) OpsPerCycle() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.AccelOps) / float64(c.Cycles)
}

// MeasuredIOC returns the measured operation-to-configuration intensity
// I_OC = ops / configuration bytes (paper §4.2).
func (c Counters) MeasuredIOC() float64 {
	if c.ConfigBytes == 0 {
		return 0
	}
	return float64(c.AccelOps) / float64(c.ConfigBytes)
}

// EffectiveConfigBW returns the measured effective configuration bandwidth
// BW_Config,Eff = bytes / (T_calc + T_set) (paper Eq. 4).
func (c Counters) EffectiveConfigBW() float64 {
	t := c.CalcCycles + c.ConfigCycles
	if t == 0 {
		return 0
	}
	return float64(c.ConfigBytes) / float64(t)
}

// RawConfigBW returns the measured raw configuration bandwidth
// BW_Config = bytes / T_set.
func (c Counters) RawConfigBW() float64 {
	if c.ConfigCycles == 0 {
		return 0
	}
	return float64(c.ConfigBytes) / float64(c.ConfigCycles)
}

// SegmentKind labels a timeline segment for trace rendering (Figure 7).
type SegmentKind uint8

// Timeline segment kinds.
const (
	SegHostExec SegmentKind = iota
	SegHostConfig
	SegHostStall
	SegAccelBusy
)

// Segment is one contiguous activity interval.
type Segment struct {
	Kind  SegmentKind
	Start uint64
	End   uint64
}

// Engine selects a Machine execution engine. Both engines implement the
// same architectural and timing semantics and are continuously
// cross-checked by the differential oracle (internal/difftest); they
// differ only in how much work the hot loop does per executed instruction.
type Engine uint8

// Execution engines.
const (
	// EngineFast, the zero value and so the default everywhere, executes
	// a predecoded program form (riscv.Decode): pre-resolved branch
	// targets, prefetched cycle costs, and basic-block-batched
	// counter/trace accounting (fast.go).
	EngineFast Engine = iota
	// EngineRef is the reference interpreter: one instruction at a time,
	// cost model consulted per instruction. It exists as the semantics
	// baseline the default engine is verified against and runs only when
	// named.
	EngineRef
)

func (e Engine) String() string {
	if e == EngineRef {
		return "ref"
	}
	return "fast"
}

// Engines lists the available engines, reference first.
var Engines = []Engine{EngineRef, EngineFast}

// EngineByName parses an engine name ("ref" or "fast").
func EngineByName(name string) (Engine, error) {
	for _, e := range Engines {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown engine %q (valid engines: %s)", name, strings.Join(EngineNames(), ", "))
}

// EngineNames lists the parseable engine names in Engines order; commands
// use it to build flag usage text and fail-fast error listings.
func EngineNames() []string {
	names := make([]string, len(Engines))
	for i, e := range Engines {
		names[i] = e.String()
	}
	return names
}

// Machine couples one host with one accelerator device over shared memory.
type Machine struct {
	Mem    *mem.Memory
	Cost   riscv.CostModel
	Device accel.Device

	// Engine selects the execution engine used by Run (default EngineFast).
	Engine Engine

	// Regs is the architectural register file; Regs[0] stays zero.
	Regs [riscv.NumRegs]int64

	// MaxInstrs bounds execution to catch runaway programs; 0 means the
	// default of 2^31 instructions.
	MaxInstrs uint64

	// RecordTrace enables timeline capture into Trace.
	RecordTrace bool
	Trace       []Segment

	Counters

	now       uint64
	busyUntil uint64
	lastJob   accel.Launch
}

// NewMachine builds a machine around the given memory, cost model and
// device.
func NewMachine(m *mem.Memory, cost riscv.CostModel, dev accel.Device) *Machine {
	return &Machine{Mem: m, Cost: cost, Device: dev}
}

// Now returns the current simulation time in cycles.
func (mc *Machine) Now() uint64 { return mc.now }

func (mc *Machine) record(kind SegmentKind, start, end uint64) {
	if !mc.RecordTrace || end <= start {
		return
	}
	// Coalesce with the previous segment when contiguous and same kind.
	if n := len(mc.Trace); n > 0 {
		last := &mc.Trace[n-1]
		if last.Kind == kind && last.End == start {
			last.End = end
			return
		}
	}
	mc.Trace = append(mc.Trace, Segment{Kind: kind, Start: start, End: end})
}

// stallUntilIdle advances time to the accelerator's completion.
func (mc *Machine) stallUntilIdle() {
	if mc.now < mc.busyUntil {
		mc.record(SegHostStall, mc.now, mc.busyUntil)
		mc.StallCycles += mc.busyUntil - mc.now
		mc.now = mc.busyUntil
	}
}

// reset clears all per-run state so a Machine can execute consecutive
// programs without the first run's clock, counters or trace leaking into
// the second's measurements. Registers are kept: callers set up arguments
// before Run, and register contents carry no timing state. The trace is
// truncated, not released, so a reused Machine (core.Run's pooled ones)
// records into its existing capacity — callers that keep a run's trace
// beyond the next Run must copy it out.
func (mc *Machine) reset() {
	mc.Counters = Counters{}
	mc.Trace = mc.Trace[:0]
	mc.now = 0
	mc.busyUntil = 0
	mc.lastJob = accel.Launch{}
}

// Run executes the program from instruction 0 until HALT on the selected
// Engine. Each call starts from a clean clock, counters and trace, so
// reusing a Machine is safe; on error, Cycles still reflects the time
// reached so partial runs are not reported as zero-cycle.
func (mc *Machine) Run(p *riscv.Program) error {
	if mc.Engine == EngineRef {
		return mc.runRef(p)
	}
	return mc.RunDecoded(riscv.Decode(p, mc.Cost))
}

// runRef is the reference interpreter loop.
func (mc *Machine) runRef(p *riscv.Program) error {
	mc.reset()
	limit := mc.MaxInstrs
	if limit == 0 {
		limit = 1 << 31
	}
	pc := 0
	for {
		if pc < 0 || pc >= len(p.Instrs) {
			mc.Cycles = mc.now
			return fmt.Errorf("sim: pc %d out of range (program has %d instructions)", pc, len(p.Instrs))
		}
		ins := p.Instrs[pc]
		if ins.Op == riscv.HALT {
			// Drain the accelerator so total cycles include the tail; the
			// drain is not a configuration-interface stall, so it does not
			// count toward StallCycles.
			if mc.now < mc.busyUntil {
				mc.record(SegHostStall, mc.now, mc.busyUntil)
				mc.now = mc.busyUntil
			}
			mc.Cycles = mc.now
			return nil
		}
		if mc.HostInstrs >= limit {
			mc.Cycles = mc.now
			return fmt.Errorf("sim: instruction limit %d exceeded (infinite loop?)", limit)
		}
		next, err := mc.step(p, pc, ins)
		if err != nil {
			mc.Cycles = mc.now
			return fmt.Errorf("sim: at pc %d (%s): %w", pc, ins, err)
		}
		pc = next
	}
}

// charge accounts one instruction at the *current* time — stalls may have
// advanced the clock before the instruction issues. It is the closure-free
// shared accounting primitive of both engines (the fast engine calls it
// only off the batched path: device ops and limit-straddling block tails).
func (mc *Machine) charge(class riscv.Class, cost uint64, kind SegmentKind) {
	start := mc.now
	mc.HostInstrs++
	mc.HostCycles += cost
	switch class {
	case riscv.ClassConfig:
		mc.ConfigCycles += cost
	case riscv.ClassSync:
		mc.SyncCycles += cost
	default:
		mc.CalcCycles += cost
	}
	mc.record(kind, start, start+cost)
	mc.now = start + cost
}

// setRd writes the destination register, keeping x0 hard-wired to zero.
func (mc *Machine) setRd(rd riscv.Reg, v int64) {
	if rd != 0 {
		mc.Regs[rd] = v
	}
}

func (mc *Machine) step(p *riscv.Program, pc int, ins riscv.Instr) (int, error) {
	cost := mc.Cost.Cycles(ins)

	charge := func(kind SegmentKind) { mc.charge(ins.Class, cost, kind) }

	rs1 := mc.Regs[ins.Rs1]
	rs2 := mc.Regs[ins.Rs2]
	setRd := func(v int64) { mc.setRd(ins.Rd, v) }

	switch ins.Op {
	case riscv.NOP:
		charge(SegHostExec)
	case riscv.ADD:
		setRd(rs1 + rs2)
		charge(SegHostExec)
	case riscv.SUB:
		setRd(rs1 - rs2)
		charge(SegHostExec)
	case riscv.MUL:
		setRd(rs1 * rs2)
		charge(SegHostExec)
	case riscv.DIVU:
		if rs2 == 0 {
			setRd(-1)
		} else {
			setRd(int64(uint64(rs1) / uint64(rs2)))
		}
		charge(SegHostExec)
	case riscv.REMU:
		if rs2 == 0 {
			setRd(rs1)
		} else {
			setRd(int64(uint64(rs1) % uint64(rs2)))
		}
		charge(SegHostExec)
	case riscv.AND:
		setRd(rs1 & rs2)
		charge(SegHostExec)
	case riscv.OR:
		setRd(rs1 | rs2)
		charge(SegHostExec)
	case riscv.XOR:
		setRd(rs1 ^ rs2)
		charge(SegHostExec)
	case riscv.SLL:
		setRd(rs1 << (uint64(rs2) & 63))
		charge(SegHostExec)
	case riscv.SRL:
		setRd(int64(uint64(rs1) >> (uint64(rs2) & 63)))
		charge(SegHostExec)
	case riscv.SLT:
		setRd(boolToInt(rs1 < rs2))
		charge(SegHostExec)
	case riscv.SLTU:
		setRd(boolToInt(uint64(rs1) < uint64(rs2)))
		charge(SegHostExec)
	case riscv.ADDI:
		setRd(rs1 + ins.Imm)
		charge(SegHostExec)
	case riscv.ANDI:
		setRd(rs1 & ins.Imm)
		charge(SegHostExec)
	case riscv.ORI:
		setRd(rs1 | ins.Imm)
		charge(SegHostExec)
	case riscv.XORI:
		setRd(rs1 ^ ins.Imm)
		charge(SegHostExec)
	case riscv.SLLI:
		setRd(rs1 << (uint64(ins.Imm) & 63))
		charge(SegHostExec)
	case riscv.SRLI:
		setRd(int64(uint64(rs1) >> (uint64(ins.Imm) & 63)))
		charge(SegHostExec)
	case riscv.SLTIU:
		setRd(boolToInt(uint64(rs1) < uint64(ins.Imm)))
		charge(SegHostExec)
	case riscv.LI:
		setRd(ins.Imm)
		charge(SegHostExec)
	case riscv.LB:
		setRd(mc.Mem.ReadSigned(uint64(rs1+ins.Imm), 8))
		charge(SegHostExec)
	case riscv.LH:
		setRd(mc.Mem.ReadSigned(uint64(rs1+ins.Imm), 16))
		charge(SegHostExec)
	case riscv.LW:
		setRd(mc.Mem.ReadSigned(uint64(rs1+ins.Imm), 32))
		charge(SegHostExec)
	case riscv.LD:
		setRd(mc.Mem.ReadSigned(uint64(rs1+ins.Imm), 64))
		charge(SegHostExec)
	case riscv.SB:
		mc.Mem.WriteSigned(uint64(rs1+ins.Imm), 8, rs2)
		charge(SegHostExec)
	case riscv.SH:
		mc.Mem.WriteSigned(uint64(rs1+ins.Imm), 16, rs2)
		charge(SegHostExec)
	case riscv.SW:
		mc.Mem.WriteSigned(uint64(rs1+ins.Imm), 32, rs2)
		charge(SegHostExec)
	case riscv.SD:
		mc.Mem.WriteSigned(uint64(rs1+ins.Imm), 64, rs2)
		charge(SegHostExec)
	case riscv.BEQ:
		charge(SegHostExec)
		if rs1 == rs2 {
			return p.Targets[pc], nil
		}
	case riscv.BNE:
		charge(SegHostExec)
		if rs1 != rs2 {
			return p.Targets[pc], nil
		}
	case riscv.BLT:
		charge(SegHostExec)
		if rs1 < rs2 {
			return p.Targets[pc], nil
		}
	case riscv.BGE:
		charge(SegHostExec)
		if rs1 >= rs2 {
			return p.Targets[pc], nil
		}
	case riscv.BLTU:
		charge(SegHostExec)
		if uint64(rs1) < uint64(rs2) {
			return p.Targets[pc], nil
		}
	case riscv.BGEU:
		charge(SegHostExec)
		if uint64(rs1) >= uint64(rs2) {
			return p.Targets[pc], nil
		}
	case riscv.JAL:
		charge(SegHostExec)
		return p.Targets[pc], nil
	case riscv.CUSTOM:
		if err := mc.custom(ins.Funct7, ins.Class, cost, rs1, rs2); err != nil {
			return 0, err
		}
	case riscv.CSRRW:
		if err := mc.csrWrite(uint32(ins.Imm), ins.Class, cost, rs1); err != nil {
			return 0, err
		}
	case riscv.CSRRS:
		if err := mc.csrRead(uint32(ins.Imm), ins.Rd, ins.Class, cost); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("unimplemented opcode %s", ins.Op)
	}
	return pc + 1, nil
}

// custom dispatches a RoCC custom instruction to the device. It is shared
// by both engines: class and cost are the caller's predecoded (or
// freshly computed) accounting inputs.
func (mc *Machine) custom(funct7 uint32, class riscv.Class, cost uint64, rs1, rs2 int64) error {
	dev := mc.Device
	if dev == nil {
		return fmt.Errorf("custom instruction with no device attached")
	}
	if dev.IsFence(funct7) {
		mc.stallUntilIdle()
		mc.charge(class, cost, SegHostStall)
		return nil
	}
	// Sequential configuration: the accelerator cannot accept interface
	// traffic while running — the host stalls (paper §2.2).
	if dev.Scheme() == accel.Sequential {
		mc.stallUntilIdle()
	} else if dev.IsLaunch(funct7) {
		// Concurrent: only a launch has to wait for the previous job.
		mc.stallUntilIdle()
	}
	dev.WriteConfig(funct7, uint64(rs1), uint64(rs2))
	mc.ConfigInstrs++
	mc.ConfigBytes += dev.ConfigBytes(funct7)
	mc.charge(class, cost, SegHostConfig)
	if dev.IsLaunch(funct7) {
		return mc.launch()
	}
	return nil
}

// csrWrite dispatches a CSR write to the device (shared by both engines).
func (mc *Machine) csrWrite(addr uint32, class riscv.Class, cost uint64, value int64) error {
	dev := mc.Device
	if dev == nil {
		return fmt.Errorf("csr write with no device attached")
	}
	if dev.Scheme() == accel.Sequential || dev.IsLaunch(addr) {
		mc.stallUntilIdle()
	}
	dev.WriteConfig(addr, uint64(value), 0)
	mc.ConfigInstrs++
	mc.ConfigBytes += dev.ConfigBytes(addr)
	mc.charge(class, cost, SegHostConfig)
	if dev.IsLaunch(addr) {
		return mc.launch()
	}
	return nil
}

// csrRead handles status/perf CSR reads (shared by both engines).
func (mc *Machine) csrRead(addr uint32, rd riscv.Reg, class riscv.Class, cost uint64) error {
	dev := mc.Device
	if dev == nil {
		return fmt.Errorf("csr read with no device attached")
	}
	busy := int64(0)
	if mc.now < mc.busyUntil {
		busy = 1
	}
	if id, ok := dev.StatusID(); ok && addr == id {
		mc.setRd(rd, busy)
	} else {
		mc.setRd(rd, int64(mc.lastJob.Cycles))
	}
	// Busy polls are waiting, not useful work: paint them as stalls so
	// overlap accounting (Figure 7) only counts hidden *work*.
	mc.charge(class, cost, SegHostStall)
	return nil
}

// launch starts a job at the current time.
func (mc *Machine) launch() error {
	job, err := mc.Device.Launch(mc.Mem)
	if err != nil {
		return err
	}
	mc.lastJob = job
	mc.busyUntil = mc.now + job.Cycles
	mc.record(SegAccelBusy, mc.now, mc.busyUntil)
	mc.AccelOps += job.Ops
	mc.AccelBusyCycles += job.Cycles
	mc.Launches++
	return nil
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
