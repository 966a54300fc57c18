package sim

// The fast execution engine. It executes the predecoded program form
// (riscv.Decode) and is semantics- and timing-identical to the reference
// interpreter (runRef) by construction and by continuous differential
// testing (internal/difftest cross-checks Counters, final memory and the
// summarized trace on every fuzzed program). The speed comes from three
// structural changes, not from modeling shortcuts:
//
//   1. Predecode: branch targets, per-op cycle costs and instruction
//      classes are resolved once per program, so the hot loop performs no
//      map lookups and no CostModel interface calls.
//   2. Closure-free stepping: the reference engine's per-instruction
//      charge/setRd closures become straight-line counter updates.
//   3. Block batching: a maximal straight-line run of plain host
//      instructions (no device ops, at most a trailing branch) has a
//      statically known (instructions, cycles) footprint — the engine
//      applies it as one counter delta and at most one trace segment,
//      then interprets only the register/memory semantics per instruction.
//
// Counter equality is provable: only instructions whose accounting is
// (HostInstrs++, HostCycles+=cost, CalcCycles+=cost, paint SegHostExec)
// are batchable (riscv.Decode restricts blocks to plain opcodes in
// ClassHost/ClassConfigCalc — both land in CalcCycles), and no such
// instruction can stall or touch the clock otherwise, so summing a
// block's costs up front produces the same counters, the same clock, and
// — because the reference engine's per-instruction segments are
// contiguous and coalesce at record time — the same trace segments.
// Everything else takes the one-instruction path: device ops go through
// the helpers the reference engine uses (deviceOp), and a plain instruction
// that cannot be batched (a sync-class poll, a limit-straddling tail) is
// charged alone (charge) and then run through the same semantics switch as
// a block of length one. The engine has one copy of the instruction
// semantics; the reference interpreter (step) has the other.

import (
	"fmt"

	"configwall/internal/riscv"
)

// RunDecoded executes a predecoded program on the fast engine. Like Run,
// each call starts from a clean clock, counters and trace; on error,
// Cycles reflects the time reached. The program must have been decoded
// under the machine's own cost model.
//
//cwlint:hotpath
func (mc *Machine) RunDecoded(d *riscv.Decoded) error {
	if name := mc.Cost.Name(); d.CostName != name {
		return fmt.Errorf("sim: program decoded for cost model %q cannot run on %q", d.CostName, name)
	}
	mc.reset()
	limit := mc.MaxInstrs
	if limit == 0 {
		limit = 1 << 31
	}
	code := d.Instrs
	regs := &mc.Regs
	memory := mc.Mem
	pc := 0
outer:
	for {
		if pc < 0 || pc >= len(code) {
			mc.Cycles = mc.now
			return fmt.Errorf("sim: pc %d out of range (program has %d instructions)", pc, len(code))
		}
		ins := &code[pc]

		// Account the instructions up to end, then run their semantics
		// below. A whole straight-line block is charged as one counter
		// delta; the limit guard keeps instruction-limit errors at exactly
		// the reference engine's instruction boundary by diverting
		// straddling blocks to the one-instruction path, as it does plain
		// instructions whose class needs its own counter (ClassSync
		// busy-poll branches).
		end := pc + 1
		if n := uint64(ins.BlockLen); n > 0 && mc.HostInstrs+n <= limit {
			c := ins.BlockCycles
			mc.HostInstrs += n
			mc.HostCycles += c
			mc.CalcCycles += c
			mc.record(SegHostExec, mc.now, mc.now+c)
			mc.now += c
			end = pc + int(n)
		} else {
			if ins.Op == riscv.HALT {
				// Drain the accelerator so total cycles include the tail;
				// the drain is not a configuration-interface stall, so it
				// does not count toward StallCycles.
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
			if !riscv.PlainOp(ins.Op) {
				if err := mc.deviceOp(ins.Op, ins.Funct7, ins.Imm, ins.Rd, regs[ins.Rs1], regs[ins.Rs2], ins.Class, ins.Cost); err != nil {
					mc.Cycles = mc.now
					return fmt.Errorf("sim: at pc %d (%s): %w", pc, ins, err)
				}
				pc++
				continue
			}
			mc.charge(ins.Class, ins.Cost, SegHostExec)
		}

		// The one semantics switch of this engine, inlined: at hundreds of
		// millions of executed instructions per sweep, a call per
		// instruction is the single largest remaining cost.
		for pc < end {
			i := &code[pc]
			rs1 := regs[i.Rs1]
			rs2 := regs[i.Rs2]
			var v int64
			switch i.Op {
			case riscv.ADD:
				v = rs1 + rs2
			case riscv.ADDI:
				v = rs1 + i.Imm
			case riscv.LI:
				v = i.Imm
			case riscv.SUB:
				v = rs1 - rs2
			case riscv.MUL:
				v = rs1 * rs2
			case riscv.DIVU:
				if rs2 == 0 {
					v = -1
				} else {
					v = int64(uint64(rs1) / uint64(rs2))
				}
			case riscv.REMU:
				if rs2 == 0 {
					v = rs1
				} else {
					v = int64(uint64(rs1) % uint64(rs2))
				}
			case riscv.AND:
				v = rs1 & rs2
			case riscv.OR:
				v = rs1 | rs2
			case riscv.XOR:
				v = rs1 ^ rs2
			case riscv.SLL:
				v = rs1 << (uint64(rs2) & 63)
			case riscv.SRL:
				v = int64(uint64(rs1) >> (uint64(rs2) & 63))
			case riscv.SLT:
				v = boolToInt(rs1 < rs2)
			case riscv.SLTU:
				v = boolToInt(uint64(rs1) < uint64(rs2))
			case riscv.ANDI:
				v = rs1 & i.Imm
			case riscv.ORI:
				v = rs1 | i.Imm
			case riscv.XORI:
				v = rs1 ^ i.Imm
			case riscv.SLLI:
				v = rs1 << (uint64(i.Imm) & 63)
			case riscv.SRLI:
				v = int64(uint64(rs1) >> (uint64(i.Imm) & 63))
			case riscv.SLTIU:
				v = boolToInt(uint64(rs1) < uint64(i.Imm))
			case riscv.LB:
				v = memory.ReadSigned(uint64(rs1+i.Imm), 8)
			case riscv.LH:
				v = memory.ReadSigned(uint64(rs1+i.Imm), 16)
			case riscv.LW:
				v = memory.ReadSigned(uint64(rs1+i.Imm), 32)
			case riscv.LD:
				v = memory.ReadSigned(uint64(rs1+i.Imm), 64)
			case riscv.SB:
				memory.WriteSigned(uint64(rs1+i.Imm), 8, rs2)
				pc++
				continue
			case riscv.SH:
				memory.WriteSigned(uint64(rs1+i.Imm), 16, rs2)
				pc++
				continue
			case riscv.SW:
				memory.WriteSigned(uint64(rs1+i.Imm), 32, rs2)
				pc++
				continue
			case riscv.SD:
				memory.WriteSigned(uint64(rs1+i.Imm), 64, rs2)
				pc++
				continue
			case riscv.BEQ:
				if rs1 == rs2 {
					pc = int(i.Target)
					continue outer
				}
				pc++
				continue
			case riscv.BNE:
				if rs1 != rs2 {
					pc = int(i.Target)
					continue outer
				}
				pc++
				continue
			case riscv.BLT:
				if rs1 < rs2 {
					pc = int(i.Target)
					continue outer
				}
				pc++
				continue
			case riscv.BGE:
				if rs1 >= rs2 {
					pc = int(i.Target)
					continue outer
				}
				pc++
				continue
			case riscv.BLTU:
				if uint64(rs1) < uint64(rs2) {
					pc = int(i.Target)
					continue outer
				}
				pc++
				continue
			case riscv.BGEU:
				if uint64(rs1) >= uint64(rs2) {
					pc = int(i.Target)
					continue outer
				}
				pc++
				continue
			case riscv.JAL:
				pc = int(i.Target)
				continue outer
			default: // NOP
				pc++
				continue
			}
			if i.Rd != 0 {
				regs[i.Rd] = v
			}
			pc++
		}
	}
}
