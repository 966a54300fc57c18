package sim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"configwall/internal/accel"
	"configwall/internal/mem"
	"configwall/internal/riscv"
	"configwall/internal/sim"
)

// runBoth executes the same program on every engine with identical fresh
// state (memory, device, registers) and asserts that every observable —
// error, registers, counters, memory image, and the recorded trace
// segment-for-segment — is identical to the reference engine's. It returns
// the reference machine for extra assertions.
func runBoth(t *testing.T, makeDev func() accel.Device, maxInstrs uint64, setup func(*sim.Machine), p *riscv.Program) *sim.Machine {
	t.Helper()
	machines := make(map[sim.Engine]*sim.Machine)
	errs := make(map[sim.Engine]error)
	mems := make(map[sim.Engine]*mem.Memory)
	for _, eng := range sim.Engines {
		m := mem.New(1 << 16)
		var dev accel.Device
		if makeDev != nil {
			dev = makeDev()
		}
		mc := sim.NewMachine(m, riscv.FlatCost{PerInstr: 2, ModelName: "unit2"}, dev)
		mc.Engine = eng
		mc.RecordTrace = true
		mc.MaxInstrs = maxInstrs
		if setup != nil {
			setup(mc)
		}
		errs[eng] = mc.Run(p)
		machines[eng] = mc
		mems[eng] = m
	}
	ref, refErr := machines[sim.EngineRef], errs[sim.EngineRef]
	size := uint64(mems[sim.EngineRef].Size())
	refMem := mems[sim.EngineRef].Snapshot(0, size)
	for _, eng := range sim.Engines {
		if eng == sim.EngineRef {
			continue
		}
		got, gotErr := machines[eng], errs[eng]
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("engines disagree on failure: ref=%v %s=%v", refErr, eng, gotErr)
		}
		if refErr != nil && refErr.Error() != gotErr.Error() {
			t.Errorf("error text differs:\nref: %v\n%s: %v", refErr, eng, gotErr)
		}
		if ref.Counters != got.Counters {
			t.Errorf("counters differ:\nref: %+v\n%s: %+v", ref.Counters, eng, got.Counters)
		}
		if ref.Regs != got.Regs {
			t.Errorf("registers differ:\nref: %v\n%s: %v", ref.Regs, eng, got.Regs)
		}
		if !reflect.DeepEqual(ref.Trace, got.Trace) {
			t.Errorf("traces differ:\nref: %+v\n%s: %+v", ref.Trace, eng, got.Trace)
		}
		gotMem := mems[eng].Snapshot(0, size)
		if !reflect.DeepEqual(refMem, gotMem) {
			for i := range refMem {
				if refMem[i] != gotMem[i] {
					t.Errorf("memory differs at %#x: ref %#02x %s %#02x", i, refMem[i], eng, gotMem[i])
					break
				}
			}
		}
	}
	return ref
}

func TestEngineEquivalence(t *testing.T) {
	seqDev := func() accel.Device {
		return &fakeDevice{scheme: accel.Sequential, busyCycles: 37, opsPerLaunch: 64}
	}
	concDev := func() accel.Device {
		return &fakeDevice{scheme: accel.Concurrent, busyCycles: 41, opsPerLaunch: 16}
	}
	cases := []struct {
		name  string
		dev   func() accel.Device
		limit uint64
		build func(a *riscv.Assembler)
	}{
		{name: "alu and memory block", build: func(a *riscv.Assembler) {
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 21})
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 6, Imm: -3})
			a.Emit(riscv.Instr{Op: riscv.MUL, Rd: 7, Rs1: 5, Rs2: 6})
			a.Emit(riscv.Instr{Op: riscv.SUB, Rd: 8, Rs1: 7, Rs2: 5})
			a.Emit(riscv.Instr{Op: riscv.DIVU, Rd: 9, Rs1: 8, Rs2: 6})
			a.Emit(riscv.Instr{Op: riscv.REMU, Rd: 10, Rs1: 8, Rs2: 0}) // div by zero path
			a.Emit(riscv.Instr{Op: riscv.SLL, Rd: 11, Rs1: 5, Rs2: 6})
			a.Emit(riscv.Instr{Op: riscv.SRLI, Rd: 12, Rs1: 11, Imm: 3})
			a.Emit(riscv.Instr{Op: riscv.SLTIU, Rd: 13, Rs1: 6, Imm: 1})
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 14, Imm: 0x200})
			a.Emit(riscv.Instr{Op: riscv.SD, Rs1: 14, Rs2: 7, Imm: 8})
			a.Emit(riscv.Instr{Op: riscv.LW, Rd: 15, Rs1: 14, Imm: 8})
			a.Emit(riscv.Instr{Op: riscv.SB, Rs1: 14, Rs2: 5, Imm: 40})
			a.Emit(riscv.Instr{Op: riscv.LB, Rd: 16, Rs1: 14, Imm: 40})
		}},
		{name: "branch loop", build: func(a *riscv.Assembler) {
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 0})
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 6, Imm: 57})
			a.Label("loop")
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: 1})
			a.Emit(riscv.Instr{Op: riscv.XORI, Rd: 7, Rs1: 5, Imm: 0x55})
			a.Emit(riscv.Instr{Op: riscv.BLT, Rs1: 5, Rs2: 6, Label: "loop"})
		}},
		{name: "branch into block interior", build: func(a *riscv.Assembler) {
			// The jump lands mid-run: the fast engine must batch the
			// *suffix* starting at the landing pc, not the whole block.
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 3})
			a.Emit(riscv.Instr{Op: riscv.JAL, Label: "mid"})
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: 100}) // skipped
			a.Label("mid")
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: 7})
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 6, Rs1: 5, Imm: 1})
		}},
		{name: "sequential device stalls", dev: seqDev, build: func(a *riscv.Assembler) {
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 1, Class: riscv.ClassConfig})
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig}) // launch
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 2, Class: riscv.ClassConfig})  // stalls
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 100, Class: riscv.ClassSync})  // fence
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 9})
		}},
		{name: "concurrent device and poll loop", dev: concDev, build: func(a *riscv.Assembler) {
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig})
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 3, Class: riscv.ClassConfig}) // staged
			a.Label("poll")
			a.Emit(riscv.Instr{Op: riscv.CSRRS, Rd: 5, Imm: 0x3cc, Class: riscv.ClassSync})
			a.Emit(riscv.Instr{Op: riscv.BNE, Rs1: 5, Rs2: 0, Label: "poll", Class: riscv.ClassSync})
			a.Emit(riscv.Instr{Op: riscv.CSRRW, Rs1: 5, Imm: 0x3c1, Class: riscv.ClassConfig})
		}},
		{name: "back to back launches", dev: concDev, build: func(a *riscv.Assembler) {
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig})
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig}) // waits
		}},
		{name: "instruction limit inside block", limit: 10, build: func(a *riscv.Assembler) {
			a.Label("forever")
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: 1})
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 6, Rs1: 6, Imm: 2})
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 7, Rs1: 7, Imm: 3})
			a.Emit(riscv.Instr{Op: riscv.JAL, Label: "forever"})
		}},
		{name: "limit exactly at block boundary", limit: 8, build: func(a *riscv.Assembler) {
			a.Label("forever")
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: 1})
			a.Emit(riscv.Instr{Op: riscv.JAL, Label: "forever"})
		}},
		{name: "device op with no device errors", build: func(a *riscv.Assembler) {
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 1})
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 1, Class: riscv.ClassConfig})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := assemble(t, tc.build)
			runBoth(t, tc.dev, tc.limit, nil, p)
		})
	}
}

// TestEngineEquivalenceRunawayPC: a program without HALT must fail
// identically on both engines.
func TestEngineEquivalenceRunawayPC(t *testing.T) {
	a := riscv.NewAssembler()
	a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: 1})
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, nil, 0, nil, p)
}

// TestFastEngineRegisterSetup: pre-set registers (the engine ABI: buffer
// bases, SP) must flow into the fast engine identically.
func TestFastEngineRegisterSetup(t *testing.T) {
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.LD, Rd: 5, Rs1: riscv.A0, Imm: 0})
		a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 6, Rs1: 5, Imm: 1})
		a.Emit(riscv.Instr{Op: riscv.SD, Rs1: riscv.A0, Rs2: 6, Imm: 8})
	})
	ref := runBoth(t, nil, 0, func(mc *sim.Machine) {
		mc.Regs[riscv.A0] = 0x400
		mc.Mem.Write64(0x400, 41)
		mc.Mem.ResetCounters()
	}, p)
	if ref.Regs[6] != 42 {
		t.Errorf("x6 = %d, want 42", ref.Regs[6])
	}
}

// TestRunDecodedRejectsForeignCostModel: a program decoded under one cost
// model must not silently run with another's timing.
func TestRunDecodedRejectsForeignCostModel(t *testing.T) {
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.NOP})
	})
	d := riscv.Decode(p, riscv.RocketCost())
	mc := newMachine(nil) // FlatCost "unit"
	err := mc.RunDecoded(d)
	if err == nil || !strings.Contains(err.Error(), "cost model") {
		t.Fatalf("want cost-model mismatch error, got %v", err)
	}
}

func TestEngineByName(t *testing.T) {
	for _, eng := range sim.Engines {
		got, err := sim.EngineByName(eng.String())
		if err != nil || got != eng {
			t.Errorf("EngineByName(%q) = %v, %v", eng.String(), got, err)
		}
	}
	if _, err := sim.EngineByName("compiled"); err == nil || !strings.Contains(err.Error(), "valid engines: ref, fast") {
		t.Errorf("EngineByName(\"compiled\") = %v, want an error listing ref, fast", err)
	}
	// The zero value is the engine every default path runs; ref is
	// reachable only by naming it.
	if def := sim.Engine(0); def != sim.EngineFast {
		t.Errorf("default engine = %s, want fast", def)
	}
}

// TestEngineEquivalenceRandomPrograms drives both engines over seeded
// pseudo-random straight-line-plus-loop programs — a cheap in-package
// differential smoke below the full irgen/difftest oracle.
func TestEngineEquivalenceRandomPrograms(t *testing.T) {
	ops := []riscv.Opcode{
		riscv.ADD, riscv.SUB, riscv.MUL, riscv.AND, riscv.OR, riscv.XOR,
		riscv.SLL, riscv.SRL, riscv.SLT, riscv.SLTU, riscv.ADDI, riscv.ANDI,
		riscv.ORI, riscv.XORI, riscv.SLLI, riscv.SRLI, riscv.SLTIU, riscv.LI,
		riscv.DIVU, riscv.REMU, riscv.NOP,
	}
	// xorshift keeps the test dependency-free and deterministic.
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for prog := 0; prog < 25; prog++ {
		p := assemble(t, func(a *riscv.Assembler) {
			// Bounded loop scaffold around a random body.
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 28, Imm: int64(2 + next(6))})
			a.Label("top")
			for i := 0; i < 4+next(20); i++ {
				op := ops[next(len(ops))]
				a.Emit(riscv.Instr{
					Op:  op,
					Rd:  riscv.Reg(next(16)),
					Rs1: riscv.Reg(next(16)),
					Rs2: riscv.Reg(next(16)),
					Imm: int64(next(256) - 128),
				})
				if next(5) == 0 {
					base := riscv.Reg(29)
					a.Emit(riscv.Instr{Op: riscv.LI, Rd: base, Imm: int64(0x100 + 8*next(64))})
					a.Emit(riscv.Instr{Op: riscv.SD, Rs1: base, Rs2: riscv.Reg(next(16)), Imm: 0})
					a.Emit(riscv.Instr{Op: riscv.LD, Rd: riscv.Reg(next(16)), Rs1: base, Imm: 0})
				}
			}
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 28, Rs1: 28, Imm: -1})
			a.Emit(riscv.Instr{Op: riscv.BNE, Rs1: 28, Rs2: 0, Label: "top"})
		})
		t.Run(fmt.Sprintf("prog%02d", prog), func(t *testing.T) {
			runBoth(t, nil, 0, nil, p)
		})
	}
}
