// Package lower converts accfg operations into target-specific command
// streams (paper Figure 8, step 5): Gemmini-style RoCC instruction
// sequences with bit-packed register pairs, and OpenGeMM-style CSR writes.
// After lowering, no accfg ops or !accfg types remain and the module is
// ready for the RV64 code generator.
package lower

import (
	"fmt"

	"configwall/internal/accel/gemmini"
	"configwall/internal/accel/opengemm"
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/csrops"
	"configwall/internal/dialects/rocc"
	"configwall/internal/ir"
	"configwall/internal/passes"
)

// AccfgToGemmini returns the pass lowering accfg ops for the "gemmini"
// accelerator into rocc instructions.
//
// Each setup materializes the RoCC instructions of the gemmini_loop_ws
// sequence that carry at least one of its fields. Because one instruction
// packs several fields into its two registers (paper Table 1 / Listing 1),
// the lowering emits the bit-packing arithmetic (mask, shift, or) explicitly
// — this is the "parameter calculation" cost the paper's effective
// configuration bandwidth models (§4.4). Fields that were deduplicated but
// share an instruction with a live field are re-materialized from the
// known-fields analysis so the packed register stays correct.
func AccfgToGemmini() ir.Pass {
	return ir.PassFunc{
		PassName: "lower-accfg-to-gemmini",
		Fn: func(m *ir.Module) error {
			for _, f := range m.Funcs() {
				if err := lowerGemminiFunc(f); err != nil {
					return err
				}
			}
			return StripAccfgTypes(m, gemmini.Name)
		},
	}
}

func lowerGemminiFunc(f *ir.Op) error {
	fs := passes.AnalyzeFields(f)
	var err error
	ir.Walk(f, func(op *ir.Op) {
		if err != nil {
			return
		}
		switch op.Name() {
		case accfg.OpSetup:
			s, _ := accfg.AsSetup(op)
			if s.Accelerator() != gemmini.Name {
				return
			}
			err = emitGemminiSetup(s, fs)
		case accfg.OpLaunch:
			l, _ := accfg.AsLaunch(op)
			if l.Accelerator() != gemmini.Name {
				return
			}
			b := ir.Before(op)
			zero := arith.NewConstant(b, 0, ir.I64)
			rocc.NewWrite(b, gemmini.FnLoopWS, zero, zero)
		case accfg.OpAwait:
			a, _ := accfg.AsAwait(op)
			if a.Token().Type().(ir.TokenType).Accelerator != gemmini.Name {
				return
			}
			b := ir.Before(op)
			rocc.NewFence(b, gemmini.FnFence)
		}
	})
	return err
}

// emitGemminiSetup lowers one setup into rocc.write ops inserted before it.
func emitGemminiSetup(s accfg.Setup, fs *passes.FieldStates) error {
	live := map[string]*ir.Value{}
	for _, f := range s.Fields() {
		if _, ok := gemmini.InstrFor(f.Name); !ok {
			return fmt.Errorf("lower-accfg-to-gemmini: unknown field %q", f.Name)
		}
		live[f.Name] = f.Value
	}
	var known map[string]*ir.Value
	if in := s.InState(); in != nil {
		known = fs.KnownFields(in)
	}
	b := ir.Before(s.Op)
	for _, ci := range gemmini.Sequence {
		if ci.Launch {
			continue
		}
		anyLive := false
		for _, slot := range ci.Slots {
			if _, ok := live[slot.Field]; ok {
				anyLive = true
				break
			}
		}
		if !anyLive {
			continue
		}
		regs := [2]*ir.Value{}
		for _, slot := range ci.Slots {
			v := live[slot.Field]
			if v == nil {
				v = known[slot.Field]
			}
			if v == nil {
				// Field never set on any path: hardware register content
				// is zero after reset, so packing zero is correct.
				v = arith.NewConstant(b, 0, ir.I64)
			}
			packed := packField(b, v, slot)
			if regs[slot.Reg] == nil {
				regs[slot.Reg] = packed
			} else {
				regs[slot.Reg] = arith.NewOr(b, regs[slot.Reg], packed)
			}
		}
		for i := 0; i < 2; i++ {
			if regs[i] == nil {
				regs[i] = arith.NewConstant(b, 0, ir.I64)
			}
		}
		rocc.NewWrite(b, ci.Funct7, regs[0], regs[1])
	}
	return nil
}

// packField emits (v & mask) << offset as i64.
func packField(b *ir.Builder, v *ir.Value, slot gemmini.FieldSlot) *ir.Value {
	if !ir.TypesEqual(v.Type(), ir.I64) {
		v = arith.NewIndexCast(b, v, ir.I64)
	}
	if slot.Bits < 64 {
		mask := arith.NewConstant(b, int64((uint64(1)<<slot.Bits)-1), ir.I64)
		v = arith.NewBinary(b, arith.OpAndI, v, mask)
	}
	if slot.Offset > 0 {
		sh := arith.NewConstant(b, int64(slot.Offset), ir.I64)
		v = arith.NewShl(b, v, sh)
	}
	return v
}

// AccfgToOpenGeMM returns the pass lowering accfg ops for the "opengemm"
// accelerator into CSR accesses: one csr.write per field (the CSR port is
// not bit-packed), a launch CSR write, and a busy-poll barrier.
func AccfgToOpenGeMM() ir.Pass {
	return ir.PassFunc{
		PassName: "lower-accfg-to-opengemm",
		Fn: func(m *ir.Module) error {
			var err error
			m.Walk(func(op *ir.Op) {
				if err != nil {
					return
				}
				switch op.Name() {
				case accfg.OpSetup:
					s, _ := accfg.AsSetup(op)
					if s.Accelerator() != opengemm.Name {
						return
					}
					err = emitOpenGeMMSetup(s)
				case accfg.OpLaunch:
					l, _ := accfg.AsLaunch(op)
					if l.Accelerator() != opengemm.Name {
						return
					}
					b := ir.Before(op)
					one := arith.NewConstant(b, 1, ir.I64)
					csrops.NewWrite(b, opengemm.CsrLaunch, one)
				case accfg.OpAwait:
					a, _ := accfg.AsAwait(op)
					if a.Token().Type().(ir.TokenType).Accelerator != opengemm.Name {
						return
					}
					b := ir.Before(op)
					csrops.NewBarrier(b, opengemm.CsrBusy)
				}
			})
			if err != nil {
				return err
			}
			return StripAccfgTypes(m, opengemm.Name)
		},
	}
}

func emitOpenGeMMSetup(s accfg.Setup) error {
	b := ir.Before(s.Op)
	live := map[string]*ir.Value{}
	for _, f := range s.Fields() {
		if _, ok := opengemm.Fields[f.Name]; !ok {
			return fmt.Errorf("lower-accfg-to-opengemm: unknown field %q", f.Name)
		}
		live[f.Name] = f.Value
	}
	// Emit in canonical order for deterministic instruction streams.
	for _, name := range opengemm.FieldOrder {
		v, ok := live[name]
		if !ok {
			continue
		}
		if !ir.TypesEqual(v.Type(), ir.I64) {
			v = arith.NewIndexCast(b, v, ir.I64)
		}
		csrops.NewWrite(b, opengemm.Fields[name], v)
	}
	return nil
}

// StripAccfgTypes removes the remaining accfg ops and the !accfg.state /
// !accfg.token plumbing of one accelerator after its command stream has
// been emitted; other accelerators' accfg ops are left for their own
// lowering. It proceeds in phases so use counts reach zero before each
// erasure:
//
//  1. erase await and launch ops,
//  2. drop state chaining between setups,
//  3. erase state/token operands from yields and loop inits,
//  4. erase state/token block args and results of scf ops,
//  5. erase the setup ops themselves.
func StripAccfgTypes(m *ir.Module, accelerator string) error {
	// Phase 1: awaits first (they consume tokens), then launches.
	var awaits, launches, setups, scfOps, yields []*ir.Op
	m.Walk(func(op *ir.Op) {
		switch op.Name() {
		case accfg.OpAwait:
			a, _ := accfg.AsAwait(op)
			if a.Token().Type().(ir.TokenType).Accelerator == accelerator {
				awaits = append(awaits, op)
			}
		case accfg.OpLaunch:
			l, _ := accfg.AsLaunch(op)
			if l.Accelerator() == accelerator {
				launches = append(launches, op)
			}
		case accfg.OpSetup:
			s, _ := accfg.AsSetup(op)
			if s.Accelerator() == accelerator {
				setups = append(setups, op)
			}
		case "scf.for", "scf.if":
			scfOps = append(scfOps, op)
		case "scf.yield":
			yields = append(yields, op)
		}
	})
	for _, op := range awaits {
		op.Erase()
	}
	for _, op := range launches {
		for i := 0; i < op.NumResults(); i++ {
			if op.Result(i).NumUses() > 0 {
				return fmt.Errorf("strip-accfg: launch token still used outside await")
			}
		}
		op.Erase()
	}
	// Phase 2: unchain setups.
	for _, op := range setups {
		s, _ := accfg.AsSetup(op)
		s.ClearInState()
	}
	// Phase 3: strip state operands from yields and scf.for inits.
	for _, y := range yields {
		eraseAccfgOperands(y, 0, accelerator)
	}
	for _, op := range scfOps {
		if op.Name() == "scf.for" {
			eraseAccfgOperands(op, 3, accelerator)
		}
	}
	// Phase 4: strip block args and results.
	for _, op := range scfOps {
		for ri := 0; ri < op.NumRegions(); ri++ {
			blk := op.Region(ri).Block()
			for i := blk.NumArgs() - 1; i >= 0; i-- {
				if isAccfgType(blk.Arg(i).Type(), accelerator) {
					if blk.Arg(i).NumUses() > 0 {
						return fmt.Errorf("strip-accfg: state block arg still in use")
					}
					blk.EraseArg(i)
				}
			}
		}
		for i := op.NumResults() - 1; i >= 0; i-- {
			if isAccfgType(op.Result(i).Type(), accelerator) {
				if op.Result(i).NumUses() > 0 {
					return fmt.Errorf("strip-accfg: state result still in use")
				}
				op.EraseResult(i)
			}
		}
	}
	// Phase 5: erase setups.
	for _, op := range setups {
		for i := 0; i < op.NumResults(); i++ {
			if op.Result(i).NumUses() > 0 {
				return fmt.Errorf("strip-accfg: setup state still in use after stripping")
			}
		}
		op.Erase()
	}
	return nil
}

func eraseAccfgOperands(op *ir.Op, from int, accelerator string) {
	for i := op.NumOperands() - 1; i >= from; i-- {
		if isAccfgType(op.Operand(i).Type(), accelerator) {
			op.EraseOperand(i)
		}
	}
}

func isAccfgType(t ir.Type, accelerator string) bool {
	switch tt := t.(type) {
	case ir.StateType:
		return tt.Accelerator == accelerator
	case ir.TokenType:
		return tt.Accelerator == accelerator
	}
	return false
}
