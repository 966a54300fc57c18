// Package lower converts accfg operations into target-specific command
// streams (paper Figure 8, step 5): one generic lowering driven by the
// accelerator's accel.Port — RoCC instruction sequences with bit-packed
// register pairs, or CSR writes. After lowering, no accfg ops or !accfg
// types remain and the module is ready for the RV64 code generator.
package lower

import (
	"fmt"

	"configwall/internal/accel"
	"configwall/internal/analysis"
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/csrops"
	"configwall/internal/dialects/rocc"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

// Accfg returns the pass lowering the accfg ops of port's accelerator,
// named lower-accfg-to-<accelerator>.
//
// Each setup materializes, in table order, the writes of the port that
// carry at least one of its fields; a launch becomes a write of LaunchValue
// to the launch id, an await the fence or the busy-poll barrier. Where one
// write packs several fields into its registers (paper Table 1 / Listing
// 1), the lowering emits the bit-packing arithmetic (mask, shift, or)
// explicitly — this is the "parameter calculation" cost the paper's
// effective configuration bandwidth models (§4.4). What such a write packs
// for a field the setup does not carry is analysis.PackedMate's to say.
func Accfg(port *accel.Port) ir.Pass {
	name := "lower-accfg-to-" + port.Accel
	return ir.PassFunc{
		PassName: name,
		Fn: func(m *ir.Module) error {
			for _, f := range m.Funcs() {
				if err := lowerFunc(name, port, f); err != nil {
					return err
				}
			}
			return StripAccfgTypes(m, port.Accel)
		},
	}
}

func lowerFunc(pass string, port *accel.Port, f *ir.Op) error {
	// Only a packed port has mates to re-materialize.
	var fs *analysis.FieldStates
	if port.Packed() {
		fs = analysis.AnalyzeFields(f)
	}
	var err error
	ir.Walk(f, func(op *ir.Op) {
		if err != nil {
			return
		}
		switch op.Name() {
		case accfg.OpSetup:
			if s, _ := accfg.AsSetup(op); s.Accelerator() == port.Accel {
				err = emitSetup(pass, port, s, fs)
			}
		case accfg.OpLaunch:
			if l, _ := accfg.AsLaunch(op); l.Accelerator() == port.Accel {
				b := ir.Before(op)
				v := arith.NewConstant(b, port.LaunchValue, ir.I64)
				emitWrite(b, port, port.Launch, [2]*ir.Value{v, v})
			}
		case accfg.OpAwait:
			if a, _ := accfg.AsAwait(op); a.Token().Type().(ir.TokenType).Accelerator == port.Accel {
				if port.Kind == accel.CSR {
					csrops.NewBarrier(ir.Before(op), port.Sync)
				} else {
					rocc.NewFence(ir.Before(op), port.Sync)
				}
			}
		}
	})
	return err
}

// emitWrite emits one write of the port: both registers on RoCC, rs1 alone
// on a CSR port.
func emitWrite(b *ir.Builder, port *accel.Port, id uint32, regs [2]*ir.Value) {
	if port.Kind == accel.CSR {
		csrops.NewWrite(b, id, regs[0])
		return
	}
	for i := range regs {
		if regs[i] == nil {
			regs[i] = arith.NewConstant(b, 0, ir.I64)
		}
	}
	rocc.NewWrite(b, id, regs[0], regs[1])
}

// emitSetup lowers one setup into writes inserted before it.
func emitSetup(pass string, port *accel.Port, s accfg.Setup, fs *analysis.FieldStates) error {
	for _, name := range s.FieldNames() {
		if port.WriteFor(name) == nil {
			return fmt.Errorf("%s: unknown field %q", pass, name)
		}
	}
	b := ir.Before(s.Op)
	for _, w := range port.Writes {
		var carried string // a field of the setup this write carries
		for _, slot := range w.Slots {
			if s.FieldValue(slot.Field) != nil {
				carried = slot.Field
				break
			}
		}
		if carried == "" {
			continue
		}
		regs := [2]*ir.Value{}
		for _, slot := range w.Slots {
			v := s.FieldValue(slot.Field)
			if v == nil {
				var ok bool
				if v, ok = analysis.PackedMate(fs, s, slot.Field); !ok {
					return fmt.Errorf("%s: setup of field %q rewrites %s, whose field %q may have been written with a value that is not known here",
						pass, carried, w.Name, slot.Field)
				}
			}
			if v == nil { // the register's reset value
				v = arith.NewConstant(b, 0, ir.I64)
			}
			packed := packField(b, v, slot)
			if regs[slot.Reg] == nil {
				regs[slot.Reg] = packed
			} else {
				regs[slot.Reg] = arith.NewOr(b, regs[slot.Reg], packed)
			}
		}
		emitWrite(b, port, w.ID, regs)
	}
	return nil
}

// packField emits (v & mask) << offset as i64.
func packField(b *ir.Builder, v *ir.Value, slot accel.FieldSlot) *ir.Value {
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
		case scf.OpFor, scf.OpIf:
			scfOps = append(scfOps, op)
		case scf.OpYield:
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
		for i := y.NumOperands() - 1; i >= 0; i-- {
			if isAccfgType(y.Operand(i).Type(), accelerator) {
				y.EraseOperand(i)
			}
		}
	}
	for _, op := range scfOps {
		if loop, ok := scf.AsFor(op); ok {
			for i := loop.NumIterArgs() - 1; i >= 0; i-- {
				if isAccfgType(loop.InitArg(i).Type(), accelerator) {
					loop.EraseInitArg(i)
				}
			}
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

func isAccfgType(t ir.Type, accelerator string) bool {
	switch tt := t.(type) {
	case ir.StateType:
		return tt.Accelerator == accelerator
	case ir.TokenType:
		return tt.Accelerator == accelerator
	}
	return false
}
