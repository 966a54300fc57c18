package sim_test

import (
	"strings"
	"testing"

	"configwall/internal/accel"
	"configwall/internal/mem"
	"configwall/internal/riscv"
	"configwall/internal/sim"
)

// The fake device sits behind one of two ports: a sequential RoCC port
// (launch funct7 99, fence funct7 100) or a concurrent CSR port (launch CSR
// 99, busy register 0x3cc).
var (
	roccPort = &accel.Port{Accel: "fake", Mode: accel.Sequential, Kind: accel.RoCC, Launch: 99, Sync: 100}
	csrPort  = &accel.Port{Accel: "fake", Mode: accel.Concurrent, Kind: accel.CSR, Launch: 99, Sync: 0x3cc}
)

// fakeDevice is a configurable test double: each launch takes busyCycles
// and performs opsPerLaunch ops.
type fakeDevice struct {
	*accel.Port
	busyCycles   uint64
	opsPerLaunch uint64
	writes       []uint32
	launchErr    error
}

func (d *fakeDevice) WriteConfig(id uint32, lo, hi uint64) {
	d.writes = append(d.writes, id)
}
func (d *fakeDevice) Launch(*mem.Memory) (accel.Launch, error) {
	if d.launchErr != nil {
		return accel.Launch{}, d.launchErr
	}
	return accel.Launch{Ops: d.opsPerLaunch, Cycles: d.busyCycles}, nil
}

func newMachine(dev accel.Device) *sim.Machine {
	return sim.NewMachine(mem.New(1<<16), riscv.FlatCost{PerInstr: 1, ModelName: "unit"}, dev)
}

func assemble(t *testing.T, build func(*riscv.Assembler)) *riscv.Program {
	t.Helper()
	a := riscv.NewAssembler()
	build(a)
	a.Emit(riscv.Instr{Op: riscv.HALT})
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestALUAndMemoryExecution(t *testing.T) {
	mc := newMachine(nil)
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 21})
		a.Emit(riscv.Instr{Op: riscv.LI, Rd: 6, Imm: 2})
		a.Emit(riscv.Instr{Op: riscv.MUL, Rd: 7, Rs1: 5, Rs2: 6})
		a.Emit(riscv.Instr{Op: riscv.LI, Rd: 8, Imm: 0x100})
		a.Emit(riscv.Instr{Op: riscv.SD, Rs1: 8, Rs2: 7, Imm: 0})
		a.Emit(riscv.Instr{Op: riscv.LD, Rd: 9, Rs1: 8, Imm: 0})
	})
	if err := mc.Run(p); err != nil {
		t.Fatal(err)
	}
	if mc.Regs[9] != 42 {
		t.Errorf("x9 = %d, want 42", mc.Regs[9])
	}
	if mc.HostInstrs != 6 {
		t.Errorf("HostInstrs = %d, want 6 (HALT not counted)", mc.HostInstrs)
	}
	if mc.Cycles != 6 {
		t.Errorf("Cycles = %d, want 6", mc.Cycles)
	}
}

func TestX0StaysZero(t *testing.T) {
	mc := newMachine(nil)
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.LI, Rd: 0, Imm: 99})
	})
	if err := mc.Run(p); err != nil {
		t.Fatal(err)
	}
	if mc.Regs[0] != 0 {
		t.Errorf("x0 = %d, want 0", mc.Regs[0])
	}
}

func TestBranchLoop(t *testing.T) {
	mc := newMachine(nil)
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 0})
		a.Emit(riscv.Instr{Op: riscv.LI, Rd: 6, Imm: 10})
		loop := a.NewLabel("loop")
		a.Bind(loop)
		a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: 1})
		a.Emit(riscv.Instr{Op: riscv.BLT, Rs1: 5, Rs2: 6, Target: loop})
	})
	if err := mc.Run(p); err != nil {
		t.Fatal(err)
	}
	if mc.Regs[5] != 10 {
		t.Errorf("x5 = %d, want 10", mc.Regs[5])
	}
}

func TestSequentialConfigStallsWhileBusy(t *testing.T) {
	dev := &fakeDevice{Port: roccPort, busyCycles: 100, opsPerLaunch: 1000}
	mc := newMachine(dev)
	p := assemble(t, func(a *riscv.Assembler) {
		// Configure + launch, then immediately configure again: the second
		// write must stall until the accelerator finishes.
		a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 1, Class: riscv.ClassConfig})
		a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig}) // launch
		a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 2, Class: riscv.ClassConfig})  // stalls ~100
	})
	if err := mc.Run(p); err != nil {
		t.Fatal(err)
	}
	if mc.StallCycles < 90 {
		t.Errorf("StallCycles = %d, want ~100 (sequential scheme must stall)", mc.StallCycles)
	}
	if mc.Launches != 1 || mc.AccelOps != 1000 {
		t.Errorf("launches=%d ops=%d, want 1/1000", mc.Launches, mc.AccelOps)
	}
}

func TestConcurrentConfigDoesNotStall(t *testing.T) {
	dev := &fakeDevice{Port: csrPort, busyCycles: 100, opsPerLaunch: 1000}
	mc := newMachine(dev)
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.CSRRW, Imm: 1, Class: riscv.ClassConfig})
		a.Emit(riscv.Instr{Op: riscv.CSRRW, Imm: 99, Class: riscv.ClassConfig}) // launch
		a.Emit(riscv.Instr{Op: riscv.CSRRW, Imm: 2, Class: riscv.ClassConfig})  // staged, no stall
		a.Emit(riscv.Instr{Op: riscv.CSRRW, Imm: 3, Class: riscv.ClassConfig})
	})
	if err := mc.Run(p); err != nil {
		t.Fatal(err)
	}
	if mc.StallCycles != 0 {
		t.Errorf("StallCycles = %d, want 0 (concurrent scheme stages config)", mc.StallCycles)
	}
	// Total run still waits for the accelerator to drain at HALT.
	if mc.Cycles < 100 {
		t.Errorf("Cycles = %d, want >= 100 (drain at halt)", mc.Cycles)
	}
}

func TestLaunchWhileBusyWaitsEvenWhenConcurrent(t *testing.T) {
	dev := &fakeDevice{Port: csrPort, busyCycles: 50, opsPerLaunch: 10}
	mc := newMachine(dev)
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.CSRRW, Imm: 99, Class: riscv.ClassConfig})
		a.Emit(riscv.Instr{Op: riscv.CSRRW, Imm: 99, Class: riscv.ClassConfig}) // must wait ~50
	})
	if err := mc.Run(p); err != nil {
		t.Fatal(err)
	}
	if mc.StallCycles < 40 {
		t.Errorf("StallCycles = %d, want ~49 (second launch waits)", mc.StallCycles)
	}
	if mc.Launches != 2 {
		t.Errorf("Launches = %d, want 2", mc.Launches)
	}
}

func TestFenceBlocksUntilIdle(t *testing.T) {
	dev := &fakeDevice{Port: roccPort, busyCycles: 77, opsPerLaunch: 1}
	mc := newMachine(dev)
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig})
		a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 100, Class: riscv.ClassSync}) // fence
		a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 1})
	})
	if err := mc.Run(p); err != nil {
		t.Fatal(err)
	}
	// fence at t=1 waits 77 cycles, then the LI runs.
	if mc.Cycles < 78 {
		t.Errorf("Cycles = %d, want >= 78", mc.Cycles)
	}
}

func TestBusyPollLoop(t *testing.T) {
	dev := &fakeDevice{Port: csrPort, busyCycles: 40, opsPerLaunch: 1}
	mc := newMachine(dev)
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.CSRRW, Imm: 99, Class: riscv.ClassConfig})
		poll := a.NewLabel("poll")
		a.Bind(poll)
		a.Emit(riscv.Instr{Op: riscv.CSRRS, Rd: 5, Imm: 0x3cc, Class: riscv.ClassSync})
		a.Emit(riscv.Instr{Op: riscv.BNE, Rs1: 5, Rs2: 0, Target: poll, Class: riscv.ClassSync})
		a.Emit(riscv.Instr{Op: riscv.LI, Rd: 6, Imm: 7})
	})
	if err := mc.Run(p); err != nil {
		t.Fatal(err)
	}
	if mc.Regs[5] != 0 {
		t.Errorf("final poll read %d, want 0 (idle)", mc.Regs[5])
	}
	if mc.Regs[6] != 7 {
		t.Error("code after poll loop did not execute")
	}
	if mc.Cycles < 40 {
		t.Errorf("Cycles = %d, want >= 40 (polled until idle)", mc.Cycles)
	}
	if mc.SyncCycles == 0 {
		t.Error("poll instructions must charge SyncCycles")
	}
}

func TestConfigCounters(t *testing.T) {
	dev := &fakeDevice{Port: roccPort, busyCycles: 5, opsPerLaunch: 1}
	mc := newMachine(dev)
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 1, Class: riscv.ClassConfig})
		a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 2, Class: riscv.ClassConfig})
		a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 1})
		a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig})
	})
	if err := mc.Run(p); err != nil {
		t.Fatal(err)
	}
	if mc.ConfigInstrs != 3 {
		t.Errorf("ConfigInstrs = %d, want 3", mc.ConfigInstrs)
	}
	if mc.ConfigBytes != 48 {
		t.Errorf("ConfigBytes = %d, want 48", mc.ConfigBytes)
	}
	if mc.ConfigCycles != 3 {
		t.Errorf("ConfigCycles = %d, want 3", mc.ConfigCycles)
	}
	if mc.CalcCycles != 1 {
		t.Errorf("CalcCycles = %d, want 1", mc.CalcCycles)
	}
	if got := mc.Counters.MeasuredIOC(); got != 1.0/48.0 {
		t.Errorf("MeasuredIOC = %v", got)
	}
	if got := mc.Counters.EffectiveConfigBW(); got != 12 {
		t.Errorf("EffectiveConfigBW = %v, want 48/4", got)
	}
	if got := mc.Counters.RawConfigBW(); got != 16 {
		t.Errorf("RawConfigBW = %v, want 48/3", got)
	}
}

func TestTraceSegments(t *testing.T) {
	dev := &fakeDevice{Port: csrPort, busyCycles: 10, opsPerLaunch: 1}
	mc := newMachine(dev)
	mc.RecordTrace = true
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 1})
		a.Emit(riscv.Instr{Op: riscv.CSRRW, Imm: 99, Class: riscv.ClassConfig})
	})
	if err := mc.Run(p); err != nil {
		t.Fatal(err)
	}
	kinds := map[sim.SegmentKind]bool{}
	for _, s := range mc.Trace {
		kinds[s.Kind] = true
		if s.End <= s.Start {
			t.Errorf("segment with non-positive duration: %+v", s)
		}
	}
	if !kinds[sim.SegHostExec] || !kinds[sim.SegHostConfig] || !kinds[sim.SegAccelBusy] {
		t.Errorf("missing segment kinds in trace: %+v", mc.Trace)
	}
}

func TestInstructionLimit(t *testing.T) {
	mc := newMachine(nil)
	mc.MaxInstrs = 100
	p := assemble(t, func(a *riscv.Assembler) {
		forever := a.NewLabel("forever")
		a.Bind(forever)
		a.Emit(riscv.Instr{Op: riscv.JAL, Target: forever})
	})
	if err := mc.Run(p); err == nil {
		t.Error("expected instruction-limit error for infinite loop")
	}
}

func TestLaunchErrorPropagates(t *testing.T) {
	dev := &fakeDevice{Port: roccPort, launchErr: accel.ErrBadConfig("fake", "boom")}
	mc := newMachine(dev)
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig})
	})
	if err := mc.Run(p); err == nil {
		t.Error("expected launch error to propagate")
	}
}

func TestRunawayPCError(t *testing.T) {
	mc := newMachine(nil)
	a := riscv.NewAssembler()
	a.Emit(riscv.Instr{Op: riscv.NOP})
	p, _ := a.Finish() // no HALT: pc runs off the end
	if err := mc.Run(p); err == nil {
		t.Error("expected pc-out-of-range error")
	}
}

// TestCSRReadNoDeviceErrors: a CSRRS with no device attached must surface
// an error like CUSTOM and CSRRW do, not dereference a nil Device.
func TestCSRReadNoDeviceErrors(t *testing.T) {
	mc := newMachine(nil)
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.CSRRS, Rd: 5, Imm: 0x3cc, Class: riscv.ClassSync})
	})
	err := mc.Run(p)
	if err == nil {
		t.Fatal("expected error for CSR read with no device attached")
	}
	if !strings.Contains(err.Error(), "no device") {
		t.Errorf("error %q does not mention the missing device", err)
	}
}

// TestMachineReuseResetsState: a second Run on the same machine must
// measure from a clean clock, counters and trace — nothing of the first
// run may accumulate into the second's measurements.
func TestMachineReuseResetsState(t *testing.T) {
	dev := &fakeDevice{Port: roccPort, busyCycles: 30, opsPerLaunch: 64}
	mc := newMachine(dev)
	mc.RecordTrace = true
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 1})
		a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig})
	})
	if err := mc.Run(p); err != nil {
		t.Fatal(err)
	}
	first := mc.Counters
	firstTrace := len(mc.Trace)
	if err := mc.Run(p); err != nil {
		t.Fatal(err)
	}
	if mc.Counters != first {
		t.Errorf("second run accumulated state:\nfirst:  %+v\nsecond: %+v", first, mc.Counters)
	}
	if len(mc.Trace) != firstTrace {
		t.Errorf("second run trace has %d segments, want %d (fresh trace)", len(mc.Trace), firstTrace)
	}
	for _, s := range mc.Trace {
		if s.Start > mc.Cycles || s.End > mc.Cycles {
			t.Errorf("second-run segment %+v exceeds run length %d (stale clock)", s, mc.Cycles)
		}
	}
}

// TestCyclesSetOnError: a run that fails mid-program must still report the
// simulated time it reached instead of leaving Cycles zero — downstream
// ops-per-cycle math treats 0 as "no data".
func TestCyclesSetOnError(t *testing.T) {
	t.Run("instruction limit", func(t *testing.T) {
		mc := newMachine(nil)
		mc.MaxInstrs = 50
		p := assemble(t, func(a *riscv.Assembler) {
			forever := a.NewLabel("forever")
			a.Bind(forever)
			a.Emit(riscv.Instr{Op: riscv.JAL, Target: forever})
		})
		if err := mc.Run(p); err == nil {
			t.Fatal("expected instruction-limit error")
		}
		if mc.Cycles == 0 {
			t.Error("Cycles = 0 after limit error, want elapsed time")
		}
	})
	t.Run("launch failure", func(t *testing.T) {
		dev := &fakeDevice{Port: roccPort, launchErr: accel.ErrBadConfig("fake", "boom")}
		mc := newMachine(dev)
		p := assemble(t, func(a *riscv.Assembler) {
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 1})
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig})
		})
		if err := mc.Run(p); err == nil {
			t.Fatal("expected launch error")
		}
		if mc.Cycles == 0 {
			t.Error("Cycles = 0 after launch error, want elapsed time")
		}
	})
	t.Run("pc out of range", func(t *testing.T) {
		mc := newMachine(nil)
		a := riscv.NewAssembler()
		a.Emit(riscv.Instr{Op: riscv.NOP})
		p, _ := a.Finish()
		if err := mc.Run(p); err == nil {
			t.Fatal("expected pc-out-of-range error")
		}
		if mc.Cycles == 0 {
			t.Error("Cycles = 0 after pc error, want elapsed time")
		}
	})
}
