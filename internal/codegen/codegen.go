// Package codegen lowers fully-target-lowered IR (arith + scf + memref +
// rocc/csr ops) to the RV64-subset instruction set executed by the
// co-simulator. It is a classic small backend: tree-walking instruction
// selection over virtual registers, structured control flow expanded to
// labels and branches, then linear-scan register allocation with spilling.
package codegen

import (
	"fmt"
	"slices"

	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/csrops"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/rocc"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
	"configwall/internal/riscv"
)

// Layout describes where the compiled function expects its data.
type Layout struct {
	// StaticBase is the base address used for memref.alloc buffers.
	StaticBase uint64
	// StaticSize is the total size of statically allocated buffers.
	StaticSize uint64
	// FrameSlots is the number of 8-byte spill slots in the stack frame.
	FrameSlots int
}

// Options configures compilation.
type Options struct {
	// StaticBase is where memref.alloc buffers are placed (the runner must
	// keep this region free). Zero selects a default of 1 MiB.
	StaticBase uint64
}

// noVReg marks an unused register slot in a pre-allocation instruction.
const noVReg = -1

// vinstr is a pre-allocation instruction over virtual registers.
type vinstr struct {
	op           riscv.Opcode
	rd, rs1, rs2 int
	imm          int64
	funct7       uint32
	target       riscv.Label
	class        riscv.Class
}

// binding places a label before the instruction at index at.
type binding struct {
	label riscv.Label
	at    int
}

// compiler holds state while emitting one function.
type compiler struct {
	asm    riscv.Assembler // hands out the labels; rewrite emits into it
	instrs []vinstr
	binds  []binding // in bind order, which is also index order
	nextVR int
	vals   map[*ir.Value]int // SSA value -> vreg
	layout *Layout
	loops  [][2]int // [start, end) instruction ranges of loop bodies
}

// Compile lowers the named entry function of m into an executable program.
// Scalar and memref arguments arrive in a0, a1, ... (memrefs as their base
// addresses); scalar results are returned in a0, ... and the program ends
// with HALT.
func Compile(m *ir.Module, entry string, opts Options) (*riscv.Program, *Layout, error) {
	f := m.FindFunc(entry)
	if f == nil {
		return nil, nil, fmt.Errorf("codegen: no function %q in module", entry)
	}
	fn, _ := fnc.AsFunc(f)

	base := opts.StaticBase
	if base == 0 {
		base = 1 << 20
	}
	body := fn.Body()
	if body.NumArgs() > 8 {
		return nil, nil, fmt.Errorf("codegen: at most 8 arguments supported, got %d", body.NumArgs())
	}
	sz := measure(f)
	c := &compiler{
		instrs: make([]vinstr, 0, sz.vinstrs()+body.NumArgs()),
		binds:  make([]binding, 0, sz.labels),
		vals:   make(map[*ir.Value]int, sz.ops+body.NumArgs()),
		layout: &Layout{StaticBase: base},
		loops:  make([][2]int, 0, sz.loops),
	}
	c.asm.Grow(0, sz.labels)

	// Bind arguments: a0..a7 moved into fresh vregs.
	for i := 0; i < body.NumArgs(); i++ {
		vr := c.fresh()
		c.vals[body.Arg(i)] = vr
		c.emit(vinstr{op: riscv.ADDI, rd: vr, rs1: physVReg(riscv.A0 + riscv.Reg(i)), imm: 0})
	}

	if err := c.block(fn.Body()); err != nil {
		return nil, nil, err
	}
	c.eliminateDeadDefs()

	prog, frameSlots, err := allocate(c)
	if err != nil {
		return nil, nil, err
	}
	c.layout.FrameSlots = frameSlots
	return prog, c.layout, nil
}

// physVReg encodes a pre-colored physical register as a negative vreg id.
func physVReg(r riscv.Reg) int { return -int(r) - 2 }

func physOf(vr int) (riscv.Reg, bool) {
	if vr <= -2 {
		return riscv.Reg(-vr - 2), true
	}
	return 0, false
}

func (c *compiler) fresh() int {
	c.nextVR++
	return c.nextVR - 1
}

func (c *compiler) emit(i vinstr) {
	c.instrs = append(c.instrs, i)
}

func (c *compiler) bind(l riscv.Label) {
	c.binds = append(c.binds, binding{label: l, at: len(c.instrs)})
}

// value returns the vreg holding an SSA value.
func (c *compiler) value(v *ir.Value) (int, error) {
	if vr, ok := c.vals[v]; ok {
		return vr, nil
	}
	return 0, fmt.Errorf("codegen: SSA value of type %s has no register (op %v)", v.Type(), defName(v))
}

func defName(v *ir.Value) string {
	if d := v.DefiningOp(); d != nil {
		return d.Name()
	}
	return "<block-arg>"
}

// constOf returns the constant behind v when it is an arith.constant.
func constOf(v *ir.Value) (int64, bool) { return arith.ConstantValue(v) }

// fitsImm12 reports whether v fits the 12-bit signed immediate field.
func fitsImm12(v int64) bool { return v >= -2048 && v < 2048 }

// block emits all ops of b.
func (c *compiler) block(b *ir.Block) error {
	for op := b.First(); op != nil; op = op.Next() {
		if err := c.op(op); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) op(op *ir.Op) error {
	switch op.Name() {
	case arith.OpConstant:
		v, _ := op.IntAttrValue("value")
		rd := c.fresh()
		c.vals[op.Result(0)] = rd
		c.emit(vinstr{op: riscv.LI, rd: rd, rs1: noVReg, rs2: noVReg, imm: v})
		return nil
	case arith.OpAddI, arith.OpSubI, arith.OpMulI, arith.OpDivUI, arith.OpRemUI,
		arith.OpAndI, arith.OpOrI, arith.OpXOrI, arith.OpShLI, arith.OpShRUI:
		return c.binary(op)
	case arith.OpCmpI:
		return c.cmp(op)
	case arith.OpSelect:
		return c.sel(op)
	case arith.OpIndexCast:
		rs, err := c.value(op.Operand(0))
		if err != nil {
			return err
		}
		rd := c.fresh()
		c.vals[op.Result(0)] = rd
		c.emit(vinstr{op: riscv.ADDI, rd: rd, rs1: rs, rs2: noVReg, imm: 0})
		return nil
	case "memref.alloc":
		return c.alloc(op)
	case "memref.dim":
		return c.dim(op)
	case "memref.extract_pointer":
		rs, err := c.value(op.Operand(0))
		if err != nil {
			return err
		}
		rd := c.fresh()
		c.vals[op.Result(0)] = rd
		c.emit(vinstr{op: riscv.ADDI, rd: rd, rs1: rs, rs2: noVReg, imm: 0})
		return nil
	case "memref.load":
		return c.load(op)
	case "memref.store":
		return c.store(op)
	case scf.OpFor:
		return c.forLoop(scf.For{Op: op})
	case scf.OpIf:
		return c.ifOp(scf.If{Op: op})
	case scf.OpYield:
		// Handled by the parent loop/if emitters.
		return nil
	case fnc.OpReturn:
		for i := 0; i < op.NumOperands(); i++ {
			rs, err := c.value(op.Operand(i))
			if err != nil {
				return err
			}
			c.emit(vinstr{op: riscv.ADDI, rd: physVReg(riscv.A0 + riscv.Reg(i)), rs1: rs, rs2: noVReg, imm: 0})
		}
		c.emit(vinstr{op: riscv.HALT, rd: noVReg, rs1: noVReg, rs2: noVReg})
		return nil
	case rocc.OpWrite:
		rs1, err := c.value(op.Operand(0))
		if err != nil {
			return err
		}
		rs2, err := c.value(op.Operand(1))
		if err != nil {
			return err
		}
		c.emit(vinstr{op: riscv.CUSTOM, rd: noVReg, rs1: rs1, rs2: rs2, funct7: rocc.Funct7(op), class: riscv.ClassConfig})
		return nil
	case rocc.OpFence:
		c.emit(vinstr{op: riscv.CUSTOM, rd: noVReg, rs1: noVReg, rs2: noVReg, funct7: rocc.Funct7(op), class: riscv.ClassSync})
		return nil
	case csrops.OpWrite:
		rs, err := c.value(op.Operand(0))
		if err != nil {
			return err
		}
		c.emit(vinstr{op: riscv.CSRRW, rd: noVReg, rs1: rs, rs2: noVReg, imm: int64(csrops.Addr(op)), class: riscv.ClassConfig})
		return nil
	case csrops.OpBarrier:
		head := c.asm.NewLabel("poll")
		c.bind(head)
		status := c.fresh()
		c.emit(vinstr{op: riscv.CSRRS, rd: status, rs1: noVReg, rs2: noVReg, imm: int64(csrops.Addr(op)), class: riscv.ClassSync})
		c.emit(vinstr{op: riscv.BNE, rd: noVReg, rs1: status, rs2: physVReg(riscv.X0), target: head, class: riscv.ClassSync})
		return nil
	case fnc.OpCall:
		return fmt.Errorf("codegen: function calls are not supported by the backend (inline the callee)")
	case accfg.OpSetup, accfg.OpLaunch, accfg.OpAwait:
		return fmt.Errorf("codegen: accfg op %s not lowered — run the accfg-to-target lowering first", op.Name())
	}
	return fmt.Errorf("codegen: unsupported op %s", op.Name())
}

var binOpcode = map[string]riscv.Opcode{
	arith.OpAddI:  riscv.ADD,
	arith.OpSubI:  riscv.SUB,
	arith.OpMulI:  riscv.MUL,
	arith.OpDivUI: riscv.DIVU,
	arith.OpRemUI: riscv.REMU,
	arith.OpAndI:  riscv.AND,
	arith.OpOrI:   riscv.OR,
	arith.OpXOrI:  riscv.XOR,
	arith.OpShLI:  riscv.SLL,
	arith.OpShRUI: riscv.SRL,
}

var immOpcode = map[string]riscv.Opcode{
	arith.OpAddI:  riscv.ADDI,
	arith.OpAndI:  riscv.ANDI,
	arith.OpOrI:   riscv.ORI,
	arith.OpXOrI:  riscv.XORI,
	arith.OpShLI:  riscv.SLLI,
	arith.OpShRUI: riscv.SRLI,
}

func (c *compiler) binary(op *ir.Op) error {
	rd := c.fresh()
	c.vals[op.Result(0)] = rd

	// Immediate form when the right operand is a small constant.
	if imm, ok := constOf(op.Operand(1)); ok {
		if iop, has := immOpcode[op.Name()]; has && (fitsImm12(imm) || iop == riscv.SLLI || iop == riscv.SRLI) {
			rs1, err := c.value(op.Operand(0))
			if err != nil {
				return err
			}
			c.emit(vinstr{op: iop, rd: rd, rs1: rs1, rs2: noVReg, imm: imm})
			return nil
		}
	}
	rs1, err := c.value(op.Operand(0))
	if err != nil {
		return err
	}
	rs2, err := c.value(op.Operand(1))
	if err != nil {
		return err
	}
	c.emit(vinstr{op: binOpcode[op.Name()], rd: rd, rs1: rs1, rs2: rs2})
	return nil
}

func (c *compiler) cmp(op *ir.Op) error {
	pred, _ := op.StringAttrValue("predicate")
	rs1, err := c.value(op.Operand(0))
	if err != nil {
		return err
	}
	rs2, err := c.value(op.Operand(1))
	if err != nil {
		return err
	}
	rd := c.fresh()
	c.vals[op.Result(0)] = rd
	zero := physVReg(riscv.X0)
	switch pred {
	case arith.PredSLT:
		c.emit(vinstr{op: riscv.SLT, rd: rd, rs1: rs1, rs2: rs2})
	case arith.PredSGT:
		c.emit(vinstr{op: riscv.SLT, rd: rd, rs1: rs2, rs2: rs1})
	case arith.PredULT:
		c.emit(vinstr{op: riscv.SLTU, rd: rd, rs1: rs1, rs2: rs2})
	case arith.PredSGE:
		c.emit(vinstr{op: riscv.SLT, rd: rd, rs1: rs1, rs2: rs2})
		c.emit(vinstr{op: riscv.XORI, rd: rd, rs1: rd, rs2: noVReg, imm: 1})
	case arith.PredSLE:
		c.emit(vinstr{op: riscv.SLT, rd: rd, rs1: rs2, rs2: rs1})
		c.emit(vinstr{op: riscv.XORI, rd: rd, rs1: rd, rs2: noVReg, imm: 1})
	case arith.PredULE:
		c.emit(vinstr{op: riscv.SLTU, rd: rd, rs1: rs2, rs2: rs1})
		c.emit(vinstr{op: riscv.XORI, rd: rd, rs1: rd, rs2: noVReg, imm: 1})
	case arith.PredEQ:
		c.emit(vinstr{op: riscv.XOR, rd: rd, rs1: rs1, rs2: rs2})
		c.emit(vinstr{op: riscv.SLTIU, rd: rd, rs1: rd, rs2: noVReg, imm: 1})
	case arith.PredNE:
		c.emit(vinstr{op: riscv.XOR, rd: rd, rs1: rs1, rs2: rs2})
		c.emit(vinstr{op: riscv.SLTU, rd: rd, rs1: zero, rs2: rd})
	default:
		return fmt.Errorf("codegen: unsupported cmpi predicate %q", pred)
	}
	return nil
}

func (c *compiler) sel(op *ir.Op) error {
	cond, err := c.value(op.Operand(0))
	if err != nil {
		return err
	}
	a, err := c.value(op.Operand(1))
	if err != nil {
		return err
	}
	bval, err := c.value(op.Operand(2))
	if err != nil {
		return err
	}
	rd := c.fresh()
	c.vals[op.Result(0)] = rd
	skip := c.asm.NewLabel("sel")
	c.emit(vinstr{op: riscv.ADDI, rd: rd, rs1: a, rs2: noVReg, imm: 0})
	c.emit(vinstr{op: riscv.BNE, rd: noVReg, rs1: cond, rs2: physVReg(riscv.X0), target: skip})
	c.emit(vinstr{op: riscv.ADDI, rd: rd, rs1: bval, rs2: noVReg, imm: 0})
	c.bind(skip)
	return nil
}

func (c *compiler) alloc(op *ir.Op) error {
	mt := op.Result(0).Type().(ir.MemRefType)
	size := uint64(ir.IntegerWidth(mt.Elem) / 8)
	if size == 0 {
		size = 1
	}
	for _, d := range mt.Dims() {
		if d == ir.DynamicSize {
			return fmt.Errorf("codegen: dynamic memref.alloc unsupported")
		}
		size *= uint64(d)
	}
	addr := c.layout.StaticBase + c.layout.StaticSize
	c.layout.StaticSize += (size + 7) &^ 7
	rd := c.fresh()
	c.vals[op.Result(0)] = rd
	c.emit(vinstr{op: riscv.LI, rd: rd, rs1: noVReg, rs2: noVReg, imm: int64(addr)})
	return nil
}

func (c *compiler) dim(op *ir.Op) error {
	mt := op.Operand(0).Type().(ir.MemRefType)
	idx, _ := op.IntAttrValue("index")
	dims := mt.Dims()
	if int(idx) >= len(dims) || dims[idx] == ir.DynamicSize {
		return fmt.Errorf("codegen: dynamic memref.dim unsupported")
	}
	rd := c.fresh()
	c.vals[op.Result(0)] = rd
	c.emit(vinstr{op: riscv.LI, rd: rd, rs1: noVReg, rs2: noVReg, imm: int64(dims[idx])})
	return nil
}

// address emits the address computation base + linearized(indices) * elem
// for a load or store whose buffer is operand bufIdx and whose indices are
// the operands after it, and returns the vreg with the final address plus
// the element width.
func (c *compiler) address(op *ir.Op, bufIdx int) (int, int, error) {
	buf := op.Operand(bufIdx)
	mt := buf.Type().(ir.MemRefType)
	dims := mt.Dims()
	if n := op.NumOperands() - bufIdx - 1; n != len(dims) {
		return 0, 0, fmt.Errorf("codegen: %d indices for rank-%d memref", n, len(dims))
	}
	width := ir.IntegerWidth(mt.Elem)
	base, err := c.value(buf)
	if err != nil {
		return 0, 0, err
	}
	// linear = ((i0*d1 + i1)*d2 + i2)...
	lin := noVReg
	for k := range dims {
		iv, err := c.value(op.Operand(bufIdx + 1 + k))
		if err != nil {
			return 0, 0, err
		}
		if lin == noVReg {
			lin = iv
		} else {
			t := c.fresh()
			dimReg := c.fresh()
			c.emit(vinstr{op: riscv.LI, rd: dimReg, rs1: noVReg, rs2: noVReg, imm: int64(dims[k])})
			c.emit(vinstr{op: riscv.MUL, rd: t, rs1: lin, rs2: dimReg})
			t2 := c.fresh()
			c.emit(vinstr{op: riscv.ADD, rd: t2, rs1: t, rs2: iv})
			lin = t2
		}
	}
	addr := c.fresh()
	if lin == noVReg {
		c.emit(vinstr{op: riscv.ADDI, rd: addr, rs1: base, rs2: noVReg, imm: 0})
		return addr, width, nil
	}
	scaled := lin
	if width > 8 {
		shift := 0
		for w := width / 8; w > 1; w >>= 1 {
			shift++
		}
		scaled = c.fresh()
		c.emit(vinstr{op: riscv.SLLI, rd: scaled, rs1: lin, rs2: noVReg, imm: int64(shift)})
	}
	c.emit(vinstr{op: riscv.ADD, rd: addr, rs1: base, rs2: scaled})
	return addr, width, nil
}

var loadOp = map[int]riscv.Opcode{8: riscv.LB, 16: riscv.LH, 32: riscv.LW, 64: riscv.LD}
var storeOp = map[int]riscv.Opcode{8: riscv.SB, 16: riscv.SH, 32: riscv.SW, 64: riscv.SD}

func (c *compiler) load(op *ir.Op) error {
	addr, width, err := c.address(op, 0)
	if err != nil {
		return err
	}
	rd := c.fresh()
	c.vals[op.Result(0)] = rd
	c.emit(vinstr{op: loadOp[width], rd: rd, rs1: addr, rs2: noVReg, imm: 0})
	return nil
}

func (c *compiler) store(op *ir.Op) error {
	val, err := c.value(op.Operand(0))
	if err != nil {
		return err
	}
	addr, width, err := c.address(op, 1)
	if err != nil {
		return err
	}
	c.emit(vinstr{op: storeOp[width], rd: noVReg, rs1: addr, rs2: val, imm: 0})
	return nil
}

func (c *compiler) forLoop(f scf.For) error {
	lb, err := c.value(f.LowerBound())
	if err != nil {
		return err
	}
	ub, err := c.value(f.UpperBound())
	if err != nil {
		return err
	}
	step, err := c.value(f.Step())
	if err != nil {
		return err
	}

	// Induction variable and iteration-arg registers live across the loop.
	iv := c.fresh()
	c.vals[f.InductionVar()] = iv
	c.emit(vinstr{op: riscv.ADDI, rd: iv, rs1: lb, rs2: noVReg, imm: 0})
	argRegs := make([]int, f.NumIterArgs())
	for i := range argRegs {
		init, err := c.value(f.InitArg(i))
		if err != nil {
			return err
		}
		r := c.fresh()
		argRegs[i] = r
		c.vals[f.IterArg(i)] = r
		c.emit(vinstr{op: riscv.ADDI, rd: r, rs1: init, rs2: noVReg, imm: 0})
	}

	head := c.asm.NewLabel("for")
	exit := c.asm.NewLabel("endfor")
	loopStart := len(c.instrs)
	c.bind(head)
	c.emit(vinstr{op: riscv.BGE, rd: noVReg, rs1: iv, rs2: ub, target: exit})

	if err := c.block(f.Body()); err != nil {
		return err
	}

	// Yield: copy yielded values into the arg registers.
	for i, r := range argRegs {
		yv, err := c.value(f.Yielded(i))
		if err != nil {
			return err
		}
		if yv != r {
			c.emit(vinstr{op: riscv.ADDI, rd: r, rs1: yv, rs2: noVReg, imm: 0})
		}
	}
	c.emit(vinstr{op: riscv.ADD, rd: iv, rs1: iv, rs2: step})
	c.emit(vinstr{op: riscv.JAL, rd: noVReg, rs1: noVReg, rs2: noVReg, target: head})
	c.bind(exit)
	c.loops = append(c.loops, [2]int{loopStart, len(c.instrs)})

	// Loop results read the arg registers after exit.
	for i, r := range argRegs {
		c.vals[f.Result(i)] = r
	}
	return nil
}

func (c *compiler) ifOp(branch scf.If) error {
	op := branch.Op
	cond, err := c.value(branch.Condition())
	if err != nil {
		return err
	}
	elseL := c.asm.NewLabel("else")
	endL := c.asm.NewLabel("endif")

	resRegs := make([]int, op.NumResults())
	for i := range resRegs {
		resRegs[i] = c.fresh()
		c.vals[op.Result(i)] = resRegs[i]
	}

	c.emit(vinstr{op: riscv.BEQ, rd: noVReg, rs1: cond, rs2: physVReg(riscv.X0), target: elseL})
	if err := c.block(branch.Then()); err != nil {
		return err
	}
	if err := c.copyYields(branch.ThenYield(), resRegs); err != nil {
		return err
	}
	c.emit(vinstr{op: riscv.JAL, rd: noVReg, rs1: noVReg, rs2: noVReg, target: endL})
	c.bind(elseL)
	if err := c.block(branch.Else()); err != nil {
		return err
	}
	if err := c.copyYields(branch.ElseYield(), resRegs); err != nil {
		return err
	}
	c.bind(endL)
	return nil
}

func (c *compiler) copyYields(yield *ir.Op, resRegs []int) error {
	if yield == nil {
		return fmt.Errorf("codegen: scf.if region missing yield")
	}
	for i, r := range resRegs {
		yv, err := c.value(yield.Operand(i))
		if err != nil {
			return err
		}
		c.emit(vinstr{op: riscv.ADDI, rd: r, rs1: yv, rs2: noVReg, imm: 0})
	}
	return nil
}

// eliminateDeadDefs removes side-effect-free instructions whose destination
// is never read (e.g. LI constants that only fed immediate forms). Labels
// and instruction order are preserved by replacing with NOP-removal
// compaction.
func (c *compiler) eliminateDeadDefs() {
	// Per virtual register: read anywhere, and how often written. One
	// table serves every round, and so does one shift table.
	regs := make([]struct {
		read bool
		defs int32
	}, c.nextVR)
	var removedBefore []int
	for {
		clear(regs)
		for _, ins := range c.instrs {
			if ins.rs1 > noVReg {
				regs[ins.rs1].read = true
			}
			if ins.rs2 > noVReg {
				regs[ins.rs2].read = true
			}
			if ins.rd > noVReg {
				regs[ins.rd].defs++
			}
		}
		removable := func(ins vinstr) bool {
			// Registers written multiple times (loop carries) must stay.
			if ins.rd <= noVReg || regs[ins.rd].read || regs[ins.rd].defs > 1 {
				return false
			}
			switch ins.op {
			case riscv.LI, riscv.ADD, riscv.SUB, riscv.MUL, riscv.AND, riscv.OR, riscv.XOR,
				riscv.SLL, riscv.SRL, riscv.SLT, riscv.SLTU, riscv.ADDI, riscv.ANDI,
				riscv.ORI, riscv.XORI, riscv.SLLI, riscv.SRLI, riscv.SLTIU:
				return true
			}
			return false
		}
		if !slices.ContainsFunc(c.instrs, removable) {
			return
		}
		// Compact in place. Label positions and loop ranges shift by the
		// removals before each.
		if removedBefore == nil {
			removedBefore = make([]int, len(c.instrs)+1)
		}
		out := c.instrs[:0]
		for idx, ins := range c.instrs {
			removedBefore[idx] = idx - len(out)
			if !removable(ins) {
				out = append(out, ins)
			}
		}
		removedBefore[len(c.instrs)] = len(c.instrs) - len(out)
		for i := range c.binds {
			c.binds[i].at -= removedBefore[c.binds[i].at]
		}
		for i := range c.loops {
			c.loops[i][0] -= removedBefore[c.loops[i][0]]
			c.loops[i][1] -= removedBefore[c.loops[i][1]]
		}
		c.instrs = out
	}
}

// size is what emitting a function will need, counted before it starts.
type size struct {
	ops, labels, loops int
}

// vinstrs is room for the function's instructions before dead ones go. Most
// ops emit one, a yield none, a load or store with its address arithmetic
// up to six: over the built-in cells and the first 100 generated programs
// per target the count is 1.01–1.5 per op (median 1.14).
func (sz size) vinstrs() int { return sz.ops + sz.ops/2 }

// measure counts the ops of f's body and the labels and loops their
// control flow will bind.
func measure(f *ir.Op) size {
	var sz size
	ir.WalkBlock(f.Region(0).Block(), func(op *ir.Op) {
		sz.ops++
		switch op.Name() {
		case scf.OpFor:
			sz.labels += 2
			sz.loops++
		case scf.OpIf:
			sz.labels += 2
		case arith.OpSelect, csrops.OpBarrier:
			sz.labels++
		}
	})
	return sz
}
