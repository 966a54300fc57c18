package riscv_test

import (
	"strings"
	"testing"

	"configwall/internal/riscv"
)

func mustFinish(t *testing.T, a *riscv.Assembler) *riscv.Program {
	t.Helper()
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDecodeResolvesTargetsAndCosts(t *testing.T) {
	a := riscv.NewAssembler()
	a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 4})
	a.Label("loop")
	a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: -1})
	a.Emit(riscv.Instr{Op: riscv.BNE, Rs1: 5, Rs2: 0, Label: "loop"})
	a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 7, Class: riscv.ClassConfig})
	a.Emit(riscv.Instr{Op: riscv.HALT})
	p := mustFinish(t, a)

	d := riscv.Decode(p, riscv.RocketCost())
	if d.CostName != riscv.RocketCost().Name() {
		t.Errorf("CostName = %q", d.CostName)
	}
	if len(d.Instrs) != len(p.Instrs) {
		t.Fatalf("decoded %d instrs, want %d", len(d.Instrs), len(p.Instrs))
	}
	if got := d.Instrs[2].Target; got != 1 {
		t.Errorf("branch target = %d, want 1", got)
	}
	if got := d.Instrs[0].Target; got != -1 {
		t.Errorf("non-branch target = %d, want -1", got)
	}
	// Rocket: 3 cycles plain, 6 for CUSTOM — prefetched per instruction.
	if d.Instrs[0].Cost != 3 || d.Instrs[3].Cost != 6 {
		t.Errorf("costs = %d/%d, want 3/6", d.Instrs[0].Cost, d.Instrs[3].Cost)
	}
}

func TestDecodeBlockBatching(t *testing.T) {
	a := riscv.NewAssembler()
	a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 1})                 // 0: run of 3 (ends at branch)
	a.Emit(riscv.Instr{Op: riscv.ADD, Rd: 6, Rs1: 5, Rs2: 5})        // 1: run of 2
	a.Emit(riscv.Instr{Op: riscv.BEQ, Rs1: 5, Rs2: 6, Label: "out"}) // 2: run of 1 (terminator)
	a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 1})                 // 3: device op, no run
	a.Label("out")
	a.Emit(riscv.Instr{Op: riscv.SUB, Rd: 7, Rs1: 6, Rs2: 5}) // 4: run of 1 (next is HALT)
	a.Emit(riscv.Instr{Op: riscv.HALT})                       // 5: no run
	p := mustFinish(t, a)

	d := riscv.Decode(p, riscv.FlatCost{PerInstr: 2, ModelName: "flat2"})
	wantLen := []int32{3, 2, 1, 0, 1, 0}
	for i, want := range wantLen {
		if got := d.Instrs[i].BlockLen; got != want {
			t.Errorf("BlockLen[%d] = %d, want %d", i, got, want)
		}
		if wantCycles := uint64(want) * 2; d.Instrs[i].BlockCycles != wantCycles {
			t.Errorf("BlockCycles[%d] = %d, want %d", i, d.Instrs[i].BlockCycles, wantCycles)
		}
	}
}

func TestDecodeBlockStopsAtProgramEnd(t *testing.T) {
	a := riscv.NewAssembler()
	a.Emit(riscv.Instr{Op: riscv.NOP})
	a.Emit(riscv.Instr{Op: riscv.NOP}) // falls off the end: still a valid run
	p := mustFinish(t, a)
	d := riscv.Decode(p, riscv.FlatCost{PerInstr: 1, ModelName: "flat"})
	if d.Instrs[0].BlockLen != 2 || d.Instrs[1].BlockLen != 1 {
		t.Errorf("BlockLens = %d,%d, want 2,1", d.Instrs[0].BlockLen, d.Instrs[1].BlockLen)
	}
}

// TestFinishRejectsUnlabeledControlFlow: a branch with no label used to
// slip through Finish with no Targets entry, and the reference engine
// would silently jump to the map zero value (instruction 0) while the
// fast engine errored — the assembler now rejects the program outright,
// so no engine can ever see one.
func TestFinishRejectsUnlabeledControlFlow(t *testing.T) {
	for _, op := range []riscv.Opcode{riscv.BEQ, riscv.BNE, riscv.BLT, riscv.BGE, riscv.BLTU, riscv.BGEU, riscv.JAL} {
		a := riscv.NewAssembler()
		a.Emit(riscv.Instr{Op: op})
		a.Emit(riscv.Instr{Op: riscv.HALT})
		if _, err := a.Finish(); err == nil {
			t.Errorf("%s without a label must not assemble", op)
		}
	}
}

func TestDecodedInstrString(t *testing.T) {
	a := riscv.NewAssembler()
	a.Label("l")
	a.Emit(riscv.Instr{Op: riscv.BNE, Rs1: 5, Rs2: 0, Label: "l"})
	p := mustFinish(t, a)
	d := riscv.Decode(p, riscv.FlatCost{PerInstr: 1, ModelName: "flat"})
	s := d.Instrs[0].String()
	if !strings.Contains(s, "bne") || !strings.Contains(s, "@0") {
		t.Errorf("String() = %q, want mnemonic and resolved target", s)
	}
}
