package passes

import (
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

// TraceStates returns the state-tracing pass (paper §5.3): it connects
// accfg.setup operations into per-accelerator state chains by adding the
// previous live state as the in-state operand, threading states through
// scf.for iteration arguments and scf.if results. The chains are what the
// deduplication pass later reasons about, in the spirit of memory SSA.
//
// Chains are never created across operations that may clobber accelerator
// state (accfg.EffectsOf == all): the trace conservatively restarts there.
func TraceStates() ir.Pass {
	return ir.PassFunc{
		PassName: "accfg-trace-states",
		Fn: func(m *ir.Module) error {
			for _, f := range m.Funcs() {
				for _, accel := range acceleratorsIn(f) {
					traceBlock(f.Region(0).Block(), accel, nil)
				}
			}
			return nil
		},
	}
}

// acceleratorsIn lists the distinct accelerator names configured in f,
// in first-appearance order.
func acceleratorsIn(f *ir.Op) []string {
	var names []string
	seen := map[string]bool{}
	ir.Walk(f, func(op *ir.Op) {
		if s, ok := accfg.AsSetup(op); ok && !seen[s.Accelerator()] {
			seen[s.Accelerator()] = true
			names = append(names, s.Accelerator())
		}
	})
	return names
}

// containsSetupFor reports whether the subtree rooted at op configures the
// accelerator.
func containsSetupFor(op *ir.Op, accel string) bool {
	found := false
	ir.Walk(op, func(o *ir.Op) {
		if s, ok := accfg.AsSetup(o); ok && s.Accelerator() == accel {
			found = true
		}
	})
	return found
}

// subtreeClobbers reports whether any op in the subtree clobbers
// accelerator state.
func subtreeClobbers(op *ir.Op) bool {
	clobbers := false
	ir.Walk(op, func(o *ir.Op) {
		if accfg.ClobbersState(o) {
			clobbers = true
		}
	})
	return clobbers
}

// traceBlock walks a block threading the live state for one accelerator.
// current is the state value live on entry (nil = unknown). It returns the
// state live on exit (nil = unknown/clobbered).
func traceBlock(b *ir.Block, accel string, current *ir.Value) *ir.Value {
	// Anchor setups are inserted in front of the op being looked at, behind
	// this loop.
	for op := b.First(); op != nil; op = op.Next() {
		switch op.Name() {
		case accfg.OpSetup:
			s, _ := accfg.AsSetup(op)
			if s.Accelerator() != accel {
				continue
			}
			if current != nil && !s.HasInState() {
				s.SetInState(current)
			}
			current = s.State()

		case scf.OpFor:
			current = traceFor(scf.For{Op: op}, accel, current)

		case scf.OpIf:
			current = traceIf(scf.If{Op: op}, accel, current)

		default:
			if accfg.ClobbersState(op) {
				current = nil
			}
		}
	}
	return current
}

// traceFor threads the state through an scf.for via a new iteration
// argument, creating an empty anchor setup before the loop when no state is
// live yet (paper Figure 9, first block).
func traceFor(loop scf.For, accel string, current *ir.Value) *ir.Value {
	if !containsSetupFor(loop.Op, accel) {
		if subtreeClobbers(loop.Op) {
			return nil
		}
		return current
	}
	if subtreeClobbers(loop.Op) {
		// Cannot thread state through a loop with clobbering ops: trace
		// the inside standalone and lose the chain.
		traceBlock(loop.Body(), accel, nil)
		return nil
	}
	if current == nil {
		b := ir.Before(loop.Op)
		anchor := accfg.NewSetup(b, accel, nil, nil)
		current = anchor.State()
	}
	// What the loop yields is known once the body is traced from arg.
	arg, res := loop.AddIterArg(current, nil)
	final := traceBlock(loop.Body(), accel, arg)
	if final == nil {
		// A clobber appeared at depth >1 that subtreeClobbers missed
		// (defensive); fall back to yielding the arg unchanged.
		final = arg
	}
	loop.Yield().AddOperand(final)
	return res
}

// traceIf threads the state through an scf.if by yielding the final state of
// both branches as a new result.
func traceIf(branch scf.If, accel string, current *ir.Value) *ir.Value {
	if !containsSetupFor(branch.Op, accel) {
		if subtreeClobbers(branch.Op) {
			return nil
		}
		return current
	}
	if subtreeClobbers(branch.Op) {
		traceBlock(branch.Then(), accel, current)
		traceBlock(branch.Else(), accel, current)
		return nil
	}
	if current == nil {
		b := ir.Before(branch.Op)
		anchor := accfg.NewSetup(b, accel, nil, nil)
		current = anchor.State()
	}
	thenFinal := traceBlock(branch.Then(), accel, current)
	elseFinal := traceBlock(branch.Else(), accel, current)
	if thenFinal == nil {
		thenFinal = current
	}
	if elseFinal == nil {
		elseFinal = current
	}
	branch.ThenYield().AddOperand(thenFinal)
	branch.ElseYield().AddOperand(elseFinal)
	return branch.Op.AddResult(current.Type())
}
