package codegen

import (
	"cmp"
	"fmt"
	"slices"

	"configwall/internal/riscv"
)

// allocatable is the physical register pool handed to the linear-scan
// allocator. x0 (zero), sp (spill base), t0/t1 (x5/x6, spill scratch) and
// the argument registers a0..a7 (live-in values, live-out results) are
// excluded.
var allocatable = [...]riscv.Reg{
	1,    // ra — no calls in generated code
	3, 4, // gp, tp — no globals/threads in generated code
	7, 8, 9, // t2, s0, s1
	18, 19, 20, 21, // s2..s5
	22, 23, 24, 25, // s6..s9
	26, 27, // s10, s11
	28, 29, 30, 31, // t3..t6
}

// interval is a live range of one virtual register.
type interval struct {
	vr         int
	start, end int
	reg        riscv.Reg
	spilled    bool
	slot       int
	live       bool // the register appears in some instruction
}

// allocate performs linear-scan register allocation over the compiler's
// instruction list and materializes the final program with spill code.
func allocate(c *compiler) (*riscv.Program, int, error) {
	intervals := computeIntervals(c)

	order := make([]*interval, 0, len(intervals))
	for i := range intervals {
		if intervals[i].live {
			order = append(order, &intervals[i])
		}
	}
	slices.SortFunc(order, func(a, b *interval) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.vr, b.vr))
	})

	// A register is free or held by one active interval: the pool bounds
	// both.
	free := make([]riscv.Reg, 0, len(allocatable))
	free = append(free, allocatable[:]...)
	active := make([]*interval, 0, len(allocatable))
	nextSlot := 0

	expire := func(pos int) {
		keep := active[:0]
		for _, a := range active {
			if a.end < pos {
				free = append(free, a.reg)
			} else {
				keep = append(keep, a)
			}
		}
		active = keep
	}

	for _, cur := range order {
		expire(cur.start)
		if len(free) > 0 {
			cur.reg = free[len(free)-1]
			free = free[:len(free)-1]
			active = append(active, cur)
			continue
		}
		// Spill the active interval with the furthest end, or cur itself.
		victim := cur
		for _, a := range active {
			if a.end > victim.end {
				victim = a
			}
		}
		if victim != cur {
			cur.reg = victim.reg
			victim.spilled = true
			victim.slot = nextSlot
			nextSlot++
			for i, a := range active {
				if a == victim {
					active[i] = cur
					break
				}
			}
		} else {
			cur.spilled = true
			cur.slot = nextSlot
			nextSlot++
		}
	}

	return rewrite(c, intervals, nextSlot)
}

// computeIntervals builds live intervals, indexed by virtual register (the
// compiler numbers them densely from 0), extending ranges across loop
// bodies for values live into a loop (their uses re-execute on the back
// edge).
func computeIntervals(c *compiler) []interval {
	intervals := make([]interval, c.nextVR)
	touch := func(vr, pos int) {
		if vr <= noVReg {
			return
		}
		iv := &intervals[vr]
		if !iv.live {
			*iv = interval{vr: vr, start: pos, end: pos, live: true}
			return
		}
		if pos < iv.start {
			iv.start = pos
		}
		if pos > iv.end {
			iv.end = pos
		}
	}
	for pos, ins := range c.instrs {
		touch(ins.rd, pos)
		touch(ins.rs1, pos)
		touch(ins.rs2, pos)
	}
	// Loop extension to a fixpoint (handles nesting in any order).
	for changed := true; changed; {
		changed = false
		for _, loop := range c.loops {
			s, e := loop[0], loop[1]
			for i := range intervals {
				iv := &intervals[i]
				if iv.live && iv.start < s && iv.end >= s && iv.end < e {
					iv.end = e
					changed = true
				}
			}
		}
	}
	return intervals
}

// rewrite materializes physical instructions, inserting spill loads/stores
// around spilled operands using the reserved scratch registers t0/t1.
func rewrite(c *compiler, intervals []interval, slots int) (*riscv.Program, int, error) {
	asm := &c.asm
	regOf := func(vr int) (riscv.Reg, *interval, error) {
		if r, ok := physOf(vr); ok {
			return r, nil, nil
		}
		if vr < 0 || vr >= len(intervals) || !intervals[vr].live {
			return 0, nil, fmt.Errorf("codegen: vreg %d has no interval", vr)
		}
		iv := &intervals[vr]
		if iv.spilled {
			return 0, iv, nil
		}
		return iv.reg, nil, nil
	}

	// One instruction per vinstr, a load per spilled source and a store
	// per spilled destination, and the final HALT.
	n := len(c.instrs) + 1
	for _, ins := range c.instrs {
		for _, vr := range [3]int{ins.rd, ins.rs1, ins.rs2} {
			if vr > noVReg && vr < len(intervals) && intervals[vr].spilled {
				n++
			}
		}
	}
	asm.Grow(n, 0)

	next := 0 // the first binding not yet placed
	for pos, ins := range c.instrs {
		for ; next < len(c.binds) && c.binds[next].at == pos; next++ {
			asm.Bind(c.binds[next].label)
		}
		out := riscv.Instr{
			Op: ins.op, Imm: ins.imm, Funct7: ins.funct7,
			Target: ins.target, Class: ins.class,
		}
		// Sources first: spilled sources load into t0/t1.
		if ins.rs1 > noVReg || ins.rs1 <= -2 {
			r, sp, err := regOf(ins.rs1)
			if err != nil {
				return nil, 0, err
			}
			if sp != nil {
				asm.Emit(riscv.Instr{Op: riscv.LD, Rd: riscv.T0, Rs1: riscv.SP, Imm: int64(8 * sp.slot)})
				r = riscv.T0
			}
			out.Rs1 = r
		}
		if ins.rs2 > noVReg || ins.rs2 <= -2 {
			r, sp, err := regOf(ins.rs2)
			if err != nil {
				return nil, 0, err
			}
			if sp != nil {
				asm.Emit(riscv.Instr{Op: riscv.LD, Rd: riscv.T1, Rs1: riscv.SP, Imm: int64(8 * sp.slot)})
				r = riscv.T1
			}
			out.Rs2 = r
		}
		var defSpill *interval
		if ins.rd > noVReg || ins.rd <= -2 {
			r, sp, err := regOf(ins.rd)
			if err != nil {
				return nil, 0, err
			}
			if sp != nil {
				r = riscv.T0 // operands already consumed; t0 is free again
				defSpill = sp
			}
			out.Rd = r
		}
		asm.Emit(out)
		if defSpill != nil {
			asm.Emit(riscv.Instr{Op: riscv.SD, Rs1: riscv.SP, Rs2: riscv.T0, Imm: int64(8 * defSpill.slot)})
		}
	}
	// Trailing labels (e.g. loop exits at the very end).
	for ; next < len(c.binds); next++ {
		asm.Bind(c.binds[next].label)
	}
	// Safety net: a program must halt.
	asm.Emit(riscv.Instr{Op: riscv.HALT})

	prog, err := asm.Finish()
	if err != nil {
		return nil, 0, err
	}
	return prog, slots, nil
}
