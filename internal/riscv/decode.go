package riscv

import "fmt"

// This file defines the predecoded program form consumed by the
// simulator's fast execution engine (internal/sim, QEMU/TCG-style
// predecode-then-dispatch). Decoding pre-resolves everything the
// interpreter hot loop would otherwise recompute per executed instruction:
//
//   - branch/jump targets (no Targets map lookup),
//   - per-op cycle costs (no CostModel interface call),
//   - the instruction class driving the paper's counters, and
//   - basic-block batches: for every instruction, the length and total
//     cycle cost of the maximal straight-line run of plain host
//     instructions starting there, so the engine can account a whole block
//     (instructions, cycles, calc-cycles, one trace segment) in O(1) and
//     only interpret the register/memory semantics per instruction.
//
// A Program is decoded once and executed many times; decode cost is linear
// in the static instruction count, which the paper's sweeps amortize over
// millions of executed instructions.

// DecodedInstr is one predecoded instruction. It carries the operand
// fields of Instr plus the precomputed cost, resolved control flow, and
// block-batching metadata.
type DecodedInstr struct {
	Op     Opcode
	Class  Class
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	Imm    int64
	Funct7 uint32
	// Cost is the instruction's cycle cost under the decode-time CostModel.
	Cost uint64
	// Target is the resolved branch/jump destination index, or -1 when the
	// instruction has none.
	Target int32
	// BlockLen is the number of instructions in the maximal batchable
	// straight-line run starting here: consecutive plain instructions
	// whose cycle cost lands in the calculation bucket (ClassHost or
	// ClassConfigCalc), of which only the last may be a branch or jump.
	// Zero for device ops (CUSTOM/CSRRW/CSRRS), HALT, unknown opcodes,
	// and plain instructions in other counter classes (a busy-poll
	// branch is ClassSync and must charge SyncCycles), which the engine
	// must all handle individually.
	BlockLen int32
	// BlockCycles is the summed Cost of that run.
	BlockCycles uint64
}

// String renders the instruction like Instr.String; resolved branch
// targets print as absolute indices ("@12") since labels are gone.
func (di DecodedInstr) String() string {
	ins := Instr{Op: di.Op, Rd: di.Rd, Rs1: di.Rs1, Rs2: di.Rs2,
		Imm: di.Imm, Funct7: di.Funct7, Class: di.Class}
	if di.Target >= 0 {
		ins.Label = fmt.Sprintf("@%d", di.Target)
	}
	return ins.String()
}

// Decoded is a predecoded, cost-annotated program.
type Decoded struct {
	Instrs []DecodedInstr
	// CostName records the cost model the cycle annotations came from, so
	// an engine can refuse to run a program decoded for a different host.
	CostName string
}

// PlainOp reports whether op is ordinary host computation or control flow
// — everything up to JAL. Device ops (CUSTOM, CSRRW, CSRRS), HALT and
// unknown opcodes need individual engine handling (stalls, launches, run
// termination, errors).
func PlainOp(op Opcode) bool { return op <= JAL }

// batchable reports whether an instruction can live inside a batched
// block: plain semantics AND cycle accounting in the calculation bucket.
// Plain instructions in other classes (busy-poll branches are ClassSync)
// execute individually so their cycles land on the right counter.
func batchable(op Opcode, class Class) bool {
	return PlainOp(op) && class != ClassConfig && class != ClassSync
}

// Decode predecodes p for execution under the given cost model.
func Decode(p *Program, cost CostModel) *Decoded {
	d := &Decoded{Instrs: make([]DecodedInstr, len(p.Instrs)), CostName: cost.Name()}
	for i, ins := range p.Instrs {
		di := &d.Instrs[i]
		*di = DecodedInstr{
			Op: ins.Op, Class: ins.Class, Rd: ins.Rd, Rs1: ins.Rs1, Rs2: ins.Rs2,
			Imm: ins.Imm, Funct7: ins.Funct7, Cost: cost.Cycles(ins), Target: -1,
		}
		if t, ok := p.Targets[i]; ok {
			di.Target = int32(t)
		}
	}
	// Backward scan: a batchable non-control instruction extends the run
	// that starts at its successor; control flow (and the end of the
	// program) terminates a run, and non-batchable successors contribute
	// length zero.
	for i := len(d.Instrs) - 1; i >= 0; i-- {
		di := &d.Instrs[i]
		if !batchable(di.Op, di.Class) {
			continue
		}
		di.BlockLen, di.BlockCycles = 1, di.Cost
		if di.Op >= BEQ { // branches and JAL end their block
			continue
		}
		if i+1 < len(d.Instrs) {
			next := &d.Instrs[i+1]
			di.BlockLen += next.BlockLen
			di.BlockCycles += next.BlockCycles
		}
	}
	return d
}
