// Package riscv defines the RV64-subset host instruction set used by the
// co-simulator: the integer ALU and memory instructions the code generator
// emits, plus the two accelerator interfaces the paper's targets use —
// RoCC-style custom instructions (Gemmini, §2.4) and CSR accesses
// (OpenGeMM-style memory-less configuration ports).
package riscv

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Reg is a register number x0..x31. x0 is hard-wired to zero.
type Reg uint8

// Register aliases following the RISC-V psABI.
const (
	X0 Reg = 0  // zero
	RA Reg = 1  // return address (unused by generated code)
	SP Reg = 2  // stack pointer (spill slots)
	GP Reg = 3  // global pointer (static data base)
	TP Reg = 4  // thread pointer (reserved scratch 2)
	T0 Reg = 5  // scratch 0
	T1 Reg = 6  // scratch 1
	A0 Reg = 10 // first argument register
)

// NumRegs is the architectural register count.
const NumRegs = 32

// Opcode enumerates the supported instructions.
type Opcode uint8

// Instruction opcodes.
const (
	NOP Opcode = iota
	// ALU register-register.
	ADD
	SUB
	MUL
	DIVU
	REMU
	AND
	OR
	XOR
	SLL
	SRL
	SLT
	SLTU
	// ALU register-immediate.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SLTIU
	// Constant materialization (pseudo: lui+addi pair counted as one).
	LI
	// Memory.
	LB
	LH
	LW
	LD
	SB
	SH
	SW
	SD
	// Control flow (label-based; the assembler resolves targets).
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	JAL
	// Accelerator interfaces.
	CUSTOM // RoCC-style: funct7 selects the operation, rs1/rs2 carry 16 bytes
	CSRRW  // CSR write: csr[imm] = rs1
	CSRRS  // CSR read: rd = csr[imm]
	// Simulation control.
	HALT
)

var opcodeNames = map[Opcode]string{
	NOP: "nop", ADD: "add", SUB: "sub", MUL: "mul", DIVU: "divu", REMU: "remu",
	AND: "and", OR: "or", XOR: "xor", SLL: "sll", SRL: "srl", SLT: "slt", SLTU: "sltu",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori", SLLI: "slli", SRLI: "srli",
	SLTIU: "sltiu", LI: "li",
	LB: "lb", LH: "lh", LW: "lw", LD: "ld", SB: "sb", SH: "sh", SW: "sw", SD: "sd",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLTU: "bltu", BGEU: "bgeu",
	JAL: "jal", CUSTOM: "custom", CSRRW: "csrrw", CSRRS: "csrrs", HALT: "halt",
}

// String returns the assembly mnemonic.
func (o Opcode) String() string {
	if n, ok := opcodeNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Class categorizes instructions for the performance counters the paper's
// methodology needs (§6.1: configuration vs calculation instructions).
type Class uint8

// Instruction classes.
const (
	// ClassHost is ordinary host computation.
	ClassHost Class = iota
	// ClassConfig is a write on the accelerator configuration interface
	// (RoCC custom instruction or CSR write to the accelerator's range).
	ClassConfig
	// ClassConfigCalc is host arithmetic whose only purpose is computing
	// configuration values (bit-packing etc.), tagged by the lowering.
	ClassConfigCalc
	// ClassSync is launch/await synchronization (fences, busy polls).
	ClassSync
)

// Label names a branch target. An Assembler hands labels out with NewLabel
// and binds each to an instruction position; the zero Label is no target.
type Label int32

// Instr is one instruction. A branch or jump names its target by label;
// Finish resolves every target to an instruction index.
type Instr struct {
	Op     Opcode
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	Imm    int64  // immediate, CSR address for CSRRW/CSRRS
	Funct7 uint32 // CUSTOM function selector
	Target Label  // branch/jump target
	Class  Class
}

// String renders the instruction; a branch target prints as its label id
// ("L3"), since only the Program knows label names.
func (i Instr) String() string {
	target := ""
	if i.Target != 0 {
		target = "L" + strconv.Itoa(int(i.Target))
	}
	return i.text(target)
}

// text renders the instruction with target as its branch/jump operand.
func (i Instr) text(target string) string {
	switch i.Op {
	case NOP, HALT:
		return i.Op.String()
	case LI:
		return fmt.Sprintf("li x%d, %d", i.Rd, i.Imm)
	case ADDI, ANDI, ORI, XORI, SLLI, SRLI, SLTIU:
		return fmt.Sprintf("%s x%d, x%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case LB, LH, LW, LD:
		return fmt.Sprintf("%s x%d, %d(x%d)", i.Op, i.Rd, i.Imm, i.Rs1)
	case SB, SH, SW, SD:
		return fmt.Sprintf("%s x%d, %d(x%d)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		return fmt.Sprintf("%s x%d, x%d, %s", i.Op, i.Rs1, i.Rs2, target)
	case JAL:
		return fmt.Sprintf("j %s", target)
	case CUSTOM:
		return fmt.Sprintf("custom.%d x%d, x%d", i.Funct7, i.Rs1, i.Rs2)
	case CSRRW:
		return fmt.Sprintf("csrrw x0, %#x, x%d", i.Imm, i.Rs1)
	case CSRRS:
		return fmt.Sprintf("csrrs x%d, %#x, x0", i.Rd, i.Imm)
	}
	return fmt.Sprintf("%s x%d, x%d, x%d", i.Op, i.Rd, i.Rs1, i.Rs2)
}

// labelDef is a label's name prefix and where it is bound: at is the index
// of the instruction it precedes (-1 while unbound) and seq its place in
// bind order.
type labelDef struct {
	prefix  string
	at, seq int32
}

// Program is an assembled instruction sequence with resolved labels.
type Program struct {
	Instrs []Instr
	// Targets holds, for every instruction, the index its branch or jump
	// goes to, or -1 for an instruction without a target.
	Targets []int32
	labels  []labelDef // label l is labels[l-1]
}

// labelName spells label l of labels as the assembly text does: "." +
// prefix + id, so the labels of one program share one counter.
func labelName(labels []labelDef, l Label) string {
	if l <= 0 || int(l) > len(labels) {
		return ""
	}
	return "." + labels[l-1].prefix + strconv.Itoa(int(l))
}

// Disassemble renders the program as assembly text with label markers.
// Labels bound at one instruction print in the order they were bound.
func (p *Program) Disassemble() string {
	var bound []Label
	for i, d := range p.labels {
		if d.at >= 0 {
			bound = append(bound, Label(i+1))
		}
	}
	// Bind order is also position order: Bind binds at the end.
	slices.SortFunc(bound, func(x, y Label) int { return cmp.Compare(p.labels[x-1].seq, p.labels[y-1].seq) })
	var sb strings.Builder
	next := 0
	for i, ins := range p.Instrs {
		for ; next < len(bound) && int(p.labels[bound[next]-1].at) == i; next++ {
			sb.WriteString(labelName(p.labels, bound[next]))
			sb.WriteString(":\n")
		}
		sb.WriteString("  ")
		sb.WriteString(ins.text(labelName(p.labels, ins.Target)))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Assembler incrementally builds a Program. The zero Assembler is empty
// and ready to use.
type Assembler struct {
	instrs []Instr
	labels []labelDef
	binds  int32 // labels bound so far
	err    error // the first misuse of Bind, reported by Finish
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler { return &Assembler{} }

// Grow makes room for instrs more instructions and labels more labels, so
// an emitter that knows its size up front appends without reallocating.
func (a *Assembler) Grow(instrs, labels int) {
	a.instrs = slices.Grow(a.instrs, instrs)
	a.labels = slices.Grow(a.labels, labels)
}

// Emit appends an instruction and returns its index.
func (a *Assembler) Emit(i Instr) int {
	a.instrs = append(a.instrs, i)
	return len(a.instrs) - 1
}

// NewLabel returns a fresh, unbound label. Disassemble names it by prefix
// and id: the third label, made with prefix "for", prints as ".for3".
func (a *Assembler) NewLabel(prefix string) Label {
	a.labels = append(a.labels, labelDef{prefix: prefix, at: -1})
	return Label(len(a.labels))
}

// Bind binds l to the next emitted instruction. A label binds once.
func (a *Assembler) Bind(l Label) {
	if l <= 0 || int(l) > len(a.labels) {
		a.fail(fmt.Errorf("riscv: bind of unknown label %d", l))
		return
	}
	d := &a.labels[l-1]
	if d.at >= 0 {
		a.fail(fmt.Errorf("riscv: label %s bound twice", labelName(a.labels, l)))
		return
	}
	d.at, d.seq = int32(len(a.instrs)), a.binds
	a.binds++
}

func (a *Assembler) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// Finish resolves every target in one pass and returns the program.
// Control-flow instructions without a target are rejected: executing one
// would have nowhere to go.
func (a *Assembler) Finish() (*Program, error) {
	if a.err != nil {
		return nil, a.err
	}
	p := &Program{Instrs: a.instrs, Targets: make([]int32, len(a.instrs)), labels: a.labels}
	for i, ins := range a.instrs {
		p.Targets[i] = -1
		if ins.Target == 0 {
			if ins.Op >= BEQ && ins.Op <= JAL {
				return nil, fmt.Errorf("riscv: %s at instruction %d has no target label", ins.Op, i)
			}
			continue
		}
		if ins.Target < 0 || int(ins.Target) > len(a.labels) {
			return nil, fmt.Errorf("riscv: unknown label %d at instruction %d", ins.Target, i)
		}
		if a.labels[ins.Target-1].at < 0 {
			return nil, fmt.Errorf("riscv: undefined label %s at instruction %d", labelName(a.labels, ins.Target), i)
		}
		p.Targets[i] = a.labels[ins.Target-1].at
	}
	return p, nil
}

// CostModel maps instructions to cycle counts, abstracting the host
// microarchitecture (paper §4.6 uses a flat 3 cycles/instruction for the
// Rocket core; a small in-order core like Snitch is closer to 1).
type CostModel interface {
	// Cycles returns the cost of executing one instruction.
	Cycles(i Instr) uint64
	// Name identifies the model in reports.
	Name() string
}

// FlatCost charges the same cycle count for every instruction.
type FlatCost struct {
	PerInstr  uint64
	ModelName string
}

// Cycles implements CostModel.
func (c FlatCost) Cycles(Instr) uint64 { return c.PerInstr }

// Name implements CostModel.
func (c FlatCost) Name() string { return c.ModelName }

// RocketCost approximates the Rocket RV64 core with the paper's 3
// cycles/instruction (the inverse harmonic-mean IPC from Dörflinger et
// al.), except RoCC custom instructions, which pay the RoCC command-queue
// handshake on top (~2x a plain instruction).
func RocketCost() CostModel { return rocketCost{} }

type rocketCost struct{}

func (rocketCost) Cycles(i Instr) uint64 {
	if i.Op == CUSTOM {
		return 6
	}
	return 3
}

func (rocketCost) Name() string { return "rocket-3cpi" }

// SnitchCost approximates a tiny single-issue in-order RV32 core at 1
// cycle/instruction with a small penalty on taken memory operations.
func SnitchCost() CostModel { return snitchCost{} }

type snitchCost struct{}

func (snitchCost) Cycles(i Instr) uint64 {
	switch i.Op {
	case LB, LH, LW, LD, SB, SH, SW, SD:
		return 2 // scratchpad access latency
	case MUL:
		return 2
	case DIVU, REMU:
		return 8
	default:
		return 1
	}
}

func (snitchCost) Name() string { return "snitch-inorder" }
