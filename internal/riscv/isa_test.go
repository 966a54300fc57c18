package riscv_test

import (
	"strings"
	"testing"

	"configwall/internal/riscv"
)

func TestAssemblerResolvesLabels(t *testing.T) {
	a := riscv.NewAssembler()
	start := a.NewLabel("start")
	a.Bind(start)
	a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 0, Imm: 1})
	end := a.NewLabel("end")
	a.Emit(riscv.Instr{Op: riscv.BNE, Rs1: 5, Rs2: 0, Target: end})
	a.Emit(riscv.Instr{Op: riscv.JAL, Target: start})
	a.Bind(end)
	a.Emit(riscv.Instr{Op: riscv.HALT})
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if p.Targets[1] != 3 {
		t.Errorf("branch target = %d, want 3", p.Targets[1])
	}
	if p.Targets[2] != 0 {
		t.Errorf("jump target = %d, want 0", p.Targets[2])
	}
}

func TestAssemblerUndefinedLabel(t *testing.T) {
	a := riscv.NewAssembler()
	a.Emit(riscv.Instr{Op: riscv.JAL, Target: a.NewLabel("nowhere")})
	if _, err := a.Finish(); err == nil || !strings.Contains(err.Error(), ".nowhere1") {
		t.Errorf("unbound label: err = %v, want one naming .nowhere1", err)
	}
	a = riscv.NewAssembler()
	a.Emit(riscv.Instr{Op: riscv.JAL, Target: 7})
	if _, err := a.Finish(); err == nil {
		t.Error("a label the assembler never made: expected an error")
	}
}

func TestAssemblerBindsOnce(t *testing.T) {
	a := riscv.NewAssembler()
	l := a.NewLabel("l")
	a.Bind(l)
	a.Emit(riscv.Instr{Op: riscv.NOP})
	a.Bind(l)
	a.Emit(riscv.Instr{Op: riscv.JAL, Target: l})
	if _, err := a.Finish(); err == nil {
		t.Error("a label bound twice: expected an error")
	}
	a = riscv.NewAssembler()
	a.Bind(3)
	a.Emit(riscv.Instr{Op: riscv.HALT})
	if _, err := a.Finish(); err == nil {
		t.Error("a bind of a label the assembler never made: expected an error")
	}
}

// TestDisassemble holds the exact text: labels named by prefix and one
// counter, and labels bound at one instruction in the order they were
// bound, the same on every call.
func TestDisassemble(t *testing.T) {
	a := riscv.NewAssembler()
	loop := a.NewLabel("loop")
	inner, outer := a.NewLabel("end"), a.NewLabel("end")
	a.Bind(loop)
	a.Emit(riscv.Instr{Op: riscv.LI, Rd: 7, Imm: 42})
	a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 9, Rs1: 7, Rs2: 8})
	a.Emit(riscv.Instr{Op: riscv.BEQ, Rs1: 7, Rs2: 0, Target: outer})
	a.Emit(riscv.Instr{Op: riscv.CSRRW, Rs1: 7, Imm: 0x3c0})
	a.Emit(riscv.Instr{Op: riscv.BGE, Rs1: 7, Rs2: 8, Target: loop})
	a.Bind(outer)
	a.Bind(inner)
	a.Emit(riscv.Instr{Op: riscv.JAL, Target: inner})
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := `.loop1:
  li x7, 42
  custom.9 x7, x8
  beq x7, x0, .end3
  csrrw x0, 0x3c0, x7
  bge x7, x8, .loop1
.end3:
.end2:
  j .end2
`
	for i := 0; i < 50; i++ {
		if got := p.Disassemble(); got != want {
			t.Fatalf("call %d:\n%s\nwant\n%s", i, got, want)
		}
	}
	if got := (riscv.Instr{Op: riscv.BGE, Rs1: 7, Rs2: 8, Target: loop}).String(); got != "bge x7, x8, L1" {
		t.Errorf("Instr.String() = %q, want the label id", got)
	}
}

func TestCostModels(t *testing.T) {
	rocket := riscv.RocketCost()
	if got := rocket.Cycles(riscv.Instr{Op: riscv.ADD}); got != 3 {
		t.Errorf("rocket ADD = %d cycles, want 3", got)
	}
	if got := rocket.Cycles(riscv.Instr{Op: riscv.CUSTOM}); got != 6 {
		t.Errorf("rocket CUSTOM = %d cycles, want 6 (RoCC queue)", got)
	}
	snitch := riscv.SnitchCost()
	if got := snitch.Cycles(riscv.Instr{Op: riscv.ADD}); got != 1 {
		t.Errorf("snitch ADD = %d cycles, want 1", got)
	}
	if got := snitch.Cycles(riscv.Instr{Op: riscv.LD}); got != 2 {
		t.Errorf("snitch LD = %d cycles, want 2", got)
	}
	if got := snitch.Cycles(riscv.Instr{Op: riscv.DIVU}); got != 8 {
		t.Errorf("snitch DIVU = %d cycles, want 8", got)
	}
	flat := riscv.FlatCost{PerInstr: 5, ModelName: "flat5"}
	if flat.Cycles(riscv.Instr{Op: riscv.MUL}) != 5 || flat.Name() != "flat5" {
		t.Error("flat cost model misbehaves")
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := []struct {
		in   riscv.Instr
		want string
	}{
		{riscv.Instr{Op: riscv.HALT}, "halt"},
		{riscv.Instr{Op: riscv.ADD, Rd: 1, Rs1: 2, Rs2: 3}, "add x1, x2, x3"},
		{riscv.Instr{Op: riscv.LD, Rd: 4, Rs1: 2, Imm: 16}, "ld x4, 16(x2)"},
		{riscv.Instr{Op: riscv.SD, Rs1: 2, Rs2: 9, Imm: 8}, "sd x9, 8(x2)"},
		{riscv.Instr{Op: riscv.SLLI, Rd: 4, Rs1: 4, Imm: 32}, "slli x4, x4, 32"},
		{riscv.Instr{Op: riscv.CSRRS, Rd: 6, Imm: 0x3cc}, "csrrs x6, 0x3cc, x0"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}
