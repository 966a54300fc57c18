package passes

import (
	"configwall/internal/dialects/accfg"
	"configwall/internal/ir"
)

// FieldStates is the result of the known-fields dataflow analysis: for every
// !accfg.state SSA value, the configuration fields whose runtime values are
// known (as SSA values) when that state is live.
//
// The analysis is an optimistic fixpoint over the state chains built by
// TraceStates. Lattice elements are either TOP (optimistic "anything", used
// only while iterating) or a map from field name to the SSA value last
// written. The transfer functions follow the paper (§5.4):
//
//   - setup result: the input state's fields overlaid with the setup's own,
//   - scf.for iter arg / result: the meet of initial and yielded states,
//   - scf.if result: the meet of both branch yields,
//   - anything else: bottom (nothing known).
//
// The meet keeps a field only when both sides agree on the same SSA value —
// SSA-value equality is the paper's proxy for runtime-value equality.
type FieldStates struct {
	states map[*ir.Value]fieldState
}

type fieldState struct {
	top    bool
	fields map[string]*ir.Value
}

func bottomState() fieldState { return fieldState{fields: map[string]*ir.Value{}} }
func topState() fieldState    { return fieldState{top: true, fields: map[string]*ir.Value{}} }

// equal compares two lattice elements.
func (a fieldState) equal(b fieldState) bool {
	if a.top != b.top || len(a.fields) != len(b.fields) {
		return false
	}
	for k, v := range a.fields {
		if b.fields[k] != v {
			return false
		}
	}
	return true
}

// overlay returns a copy of s with the given field writes applied.
func (s fieldState) overlay(fields []accfg.Field) fieldState {
	out := fieldState{top: s.top, fields: make(map[string]*ir.Value, len(s.fields)+len(fields))}
	for k, v := range s.fields {
		out.fields[k] = v
	}
	for _, f := range fields {
		out.fields[f.Name] = f.Value
	}
	return out
}

// meet intersects two lattice elements. TOP is the identity.
func meet(a, b fieldState) fieldState {
	if a.top {
		return b
	}
	if b.top {
		return a
	}
	out := bottomState()
	for k, v := range a.fields {
		if b.fields[k] == v {
			out.fields[k] = v
		}
	}
	return out
}

// AnalyzeFields runs the known-fields analysis over one function.
func AnalyzeFields(f *ir.Op) *FieldStates {
	fs := &FieldStates{states: map[*ir.Value]fieldState{}}

	// Collect every state-typed SSA value in the function.
	var stateValues []*ir.Value
	ir.Walk(f, func(op *ir.Op) {
		for i := 0; i < op.NumResults(); i++ {
			if r := op.Result(i); isState(r) {
				stateValues = append(stateValues, r)
			}
		}
		for ri := 0; ri < op.NumRegions(); ri++ {
			blk := op.Region(ri).Block()
			for i := 0; i < blk.NumArgs(); i++ {
				if a := blk.Arg(i); isState(a) {
					stateValues = append(stateValues, a)
				}
			}
		}
	})
	for _, v := range stateValues {
		fs.states[v] = topState()
	}

	// Fixpoint iteration: monotone descending from TOP, terminates.
	for round := 0; round < len(stateValues)+2; round++ {
		changed := false
		for _, v := range stateValues {
			next := fs.transfer(v)
			if !next.equal(fs.states[v]) {
				fs.states[v] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return fs
}

func isState(v *ir.Value) bool {
	_, ok := v.Type().(ir.StateType)
	return ok
}

// transfer recomputes the lattice element for one state value from its
// definition.
func (fs *FieldStates) transfer(v *ir.Value) fieldState {
	if v.IsBlockArg() {
		parent := v.OwnerBlock().ParentOp()
		if parent == nil || parent.Name() != scf_OpFor {
			return bottomState()
		}
		// scf.for body arg i (i>0 — arg 0 is the induction variable):
		// meet of init operand and yielded value.
		idx := v.ResultIndex() - 1
		if idx < 0 {
			return bottomState()
		}
		init := parent.Operand(3 + idx)
		yield := parent.Region(0).Block().Last()
		if yield == nil || yield.NumOperands() <= idx {
			return fs.lookup(init)
		}
		return meet(fs.lookup(init), fs.lookup(yield.Operand(idx)))
	}

	def := v.DefiningOp()
	if def == nil {
		return bottomState()
	}
	switch def.Name() {
	case accfg.OpSetup:
		s, _ := accfg.AsSetup(def)
		base := bottomState()
		if in := s.InState(); in != nil {
			base = fs.lookup(in)
		}
		return base.overlay(s.Fields())
	case scf_OpFor:
		idx := v.ResultIndex()
		init := def.Operand(3 + idx)
		yield := def.Region(0).Block().Last()
		if yield == nil || yield.NumOperands() <= idx {
			return fs.lookup(init)
		}
		return meet(fs.lookup(init), fs.lookup(yield.Operand(idx)))
	case scf_OpIf:
		idx := v.ResultIndex()
		ty := def.Region(0).Block().Last()
		ey := def.Region(1).Block().Last()
		if ty == nil || ey == nil || ty.NumOperands() <= idx || ey.NumOperands() <= idx {
			return bottomState()
		}
		return meet(fs.lookup(ty.Operand(idx)), fs.lookup(ey.Operand(idx)))
	}
	return bottomState()
}

func (fs *FieldStates) lookup(v *ir.Value) fieldState {
	if s, ok := fs.states[v]; ok {
		return s
	}
	return bottomState()
}

// Known returns the SSA value the named field is guaranteed to hold when
// state is live, or nil when unknown.
func (fs *FieldStates) Known(state *ir.Value, field string) *ir.Value {
	s := fs.lookup(state)
	if s.top {
		return nil
	}
	return s.fields[field]
}

// MayWrite reports whether some path to state may have written the named
// field, known value or not. It walks the chains the known-fields fixpoint
// follows (setup inputs, loop inits and yields, branch yields), on demand:
// the lowering asks only for a packed mate with no known value, to tell
// "never written, still at its reset value" from "written with a value the
// meet dropped". A state of any other origin may have written anything.
func MayWrite(state *ir.Value, field string) bool {
	seen := map[*ir.Value]bool{}
	work := []*ir.Value{state}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		def, idx := v.DefiningOp(), v.ResultIndex()
		if v.IsBlockArg() {
			// Only a loop body carries states as arguments, after the
			// induction variable.
			def, idx = v.OwnerBlock().ParentOp(), idx-1
			if def == nil || def.Name() != scf_OpFor || idx < 0 {
				return true
			}
		}
		if def == nil {
			return true
		}
		switch def.Name() {
		case accfg.OpSetup:
			s, _ := accfg.AsSetup(def)
			if s.FieldValue(field) != nil {
				return true
			}
			if in := s.InState(); in != nil {
				work = append(work, in)
			}
		case scf_OpFor:
			work = append(work, def.Operand(3+idx))
			if yield := def.Region(0).Block().Last(); yield != nil && yield.NumOperands() > idx {
				work = append(work, yield.Operand(idx))
			}
		case scf_OpIf:
			for ri := 0; ri < 2; ri++ {
				yield := def.Region(ri).Block().Last()
				if yield == nil || yield.NumOperands() <= idx {
					return true
				}
				work = append(work, yield.Operand(idx))
			}
		default:
			return true
		}
	}
	return false
}
