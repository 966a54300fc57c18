package passes

import (
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

// HoistLoopInvariantFields returns the setup-LICM pass (paper §5.4.1): setup
// fields whose values are loop-invariant move to a setup created in front of
// the loop, so the loop body only re-writes the fields that actually change
// per iteration (paper Figure 9, first -> second block).
//
// A field hoists only when:
//   - its setup is at depth 1 of the loop body (executes unconditionally),
//   - its setup chains from the loop's state iteration argument,
//   - its value is defined outside the loop, and
//   - no other setup in the loop writes the same field (two different
//     in-loop writes can never hoist, matching the paper's constraint).
func HoistLoopInvariantFields() ir.Pass {
	return ir.PassFunc{
		PassName: "accfg-hoist-loop-invariant-fields",
		Fn: func(m *ir.Module) error {
			changed := true
			for changed {
				changed = false
				var loops []scf.For
				m.Walk(func(op *ir.Op) {
					if loop, ok := scf.AsFor(op); ok {
						loops = append(loops, loop)
					}
				})
				for _, loop := range loops {
					if loop.Op.Block() == nil {
						continue
					}
					if hoistFromLoop(loop) {
						changed = true
					}
				}
			}
			return nil
		},
	}
}

func hoistFromLoop(loop scf.For) bool {
	changed := false
	// The rewrite adds a setup in front of the loop and drops operands of
	// op; the body's op list stays as it is.
	for op := loop.Body().First(); op != nil; op = op.Next() {
		s, ok := accfg.AsSetup(op)
		if !ok || !s.HasInState() {
			continue
		}
		// Map the body arg back to the loop operand carrying the state.
		arg := s.InState()
		carrier, argIdx, ok := scf.Carried(arg)
		if !ok || !arg.IsBlockArg() || carrier != loop {
			continue
		}
		var hoistable []accfg.Field
		for _, f := range s.Fields() {
			if definedInsideValue(f.Value, loop.Op) {
				continue
			}
			if writtenByOtherSetup(loop.Op, op, f.Name, s.Accelerator()) {
				continue
			}
			hoistable = append(hoistable, f)
		}
		if len(hoistable) == 0 {
			continue
		}
		// Build (or extend) the pre-loop setup on the state operand.
		b := ir.Before(loop.Op)
		pre := accfg.NewSetup(b, s.Accelerator(), loop.InitArg(argIdx), hoistable)
		loop.SetInitArg(argIdx, pre.State())
		for _, f := range hoistable {
			s.RemoveField(f.Name)
		}
		changed = true
	}
	return changed
}

// definedInsideValue reports whether v is defined within loop.
func definedInsideValue(v *ir.Value, loop *ir.Op) bool {
	if v.IsBlockArg() {
		p := v.OwnerBlock().ParentOp()
		return p != nil && (p == loop || loop.IsAncestorOf(p))
	}
	d := v.DefiningOp()
	return d != nil && (d == loop || loop.IsAncestorOf(d))
}

// writtenByOtherSetup reports whether any setup in the loop other than self
// writes the named field for the same accelerator.
func writtenByOtherSetup(loop *ir.Op, self *ir.Op, field, accel string) bool {
	conflict := false
	ir.Walk(loop, func(o *ir.Op) {
		if o == self {
			return
		}
		if s, ok := accfg.AsSetup(o); ok && s.Accelerator() == accel && s.FieldValue(field) != nil {
			conflict = true
		}
	})
	return conflict
}

// SinkSetupsIntoBranches returns the branch-hoisting pass (paper §5.4.1,
// "lifting setup calls into branching logic"): a setup chained from the
// state produced by an scf.if is cloned into both branches, restoring a
// linear state chain per path so deduplication does not lose information to
// the branch meet.
func SinkSetupsIntoBranches() ir.Pass {
	return ir.PassFunc{
		PassName: "accfg-sink-setups-into-branches",
		Fn: func(m *ir.Module) error {
			changed := true
			for changed {
				changed = false
				var setups []*ir.Op
				m.Walk(func(op *ir.Op) {
					if _, ok := accfg.AsSetup(op); ok {
						setups = append(setups, op)
					}
				})
				for _, op := range setups {
					if op.Block() == nil {
						continue
					}
					if sinkIntoBranches(op) {
						changed = true
					}
				}
			}
			return nil
		},
	}
}

func sinkIntoBranches(op *ir.Op) bool {
	s, _ := accfg.AsSetup(op)
	if !s.HasInState() {
		return false
	}
	in := s.InState()
	branch, ok := scf.AsIf(in.DefiningOp())
	if !ok || branch.Op.Block() != op.Block() {
		return false
	}
	ifOp := branch.Op
	// The if-state must feed only this setup; other readers (e.g. a launch
	// between the if and the setup) pin the setup in place.
	if in.NumUses() != 1 {
		return false
	}
	// Every op between the if and the setup must preserve accelerator state
	// (the setup conceptually moves above them into the branches).
	for o := ifOp.Next(); o != nil && o != op; o = o.Next() {
		if accfg.EffectsOf(o) == ir.EffectsAll {
			return false
		}
	}
	// Field values must dominate the scf.if to be usable inside it.
	for _, f := range s.Fields() {
		if !dominatesOp(f.Value, ifOp) {
			return false
		}
	}
	resIdx := in.ResultIndex()
	for _, yield := range [2]*ir.Op{branch.ThenYield(), branch.ElseYield()} {
		branchState := yield.Operand(resIdx)
		b := ir.Before(yield)
		clone := accfg.NewSetup(b, s.Accelerator(), branchState, s.Fields())
		yield.SetOperand(resIdx, clone.State())
	}
	// The if result now carries the post-setup state.
	s.State().ReplaceAllUsesWith(in)
	op.Erase()
	return true
}

// dominatesOp reports whether value v is available at op: v is defined by an
// op strictly before op in the same block, or in a block enclosing op's
// block, or is a block argument of an enclosing block.
func dominatesOp(v *ir.Value, op *ir.Op) bool {
	if v.IsBlockArg() {
		return blockEncloses(v.OwnerBlock(), op)
	}
	def := v.DefiningOp()
	if def == nil {
		return false
	}
	if def.Block() == op.Block() {
		return def.IsBefore(op)
	}
	// Walk up from op looking for an ancestor in def's block after def.
	for p := op.ParentOp(); p != nil; p = p.ParentOp() {
		if p.Block() == def.Block() {
			return def.IsBefore(p)
		}
	}
	return false
}

// blockEncloses reports whether op is nested inside block b (at any depth).
func blockEncloses(b *ir.Block, op *ir.Op) bool {
	for o := op; o != nil; o = o.ParentOp() {
		if o.Block() == b {
			return true
		}
	}
	return false
}
