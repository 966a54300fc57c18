package analysis

import (
	"slices"

	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

// FieldStates is the result of the known-fields dataflow analysis: for every
// !accfg.state SSA value, the configuration fields whose runtime values are
// known (as SSA values) when that state is live.
//
// The analysis is an optimistic fixpoint over the state chains built by
// TraceStates. Lattice elements are either TOP (optimistic "anything", used
// only while iterating) or the fields written, sorted by name, each with the
// SSA value last written. The transfer functions follow the paper (§5.4):
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
	buf    []field[*ir.Value] // where transfer builds the next element
}

// fieldState is one lattice element. Its fields are never changed once
// stored, so a transfer that passes one through shares it.
type fieldState struct {
	top    bool
	fields []field[*ir.Value]
}

// equal compares two lattice elements.
func (a fieldState) equal(b fieldState) bool {
	if a.top != b.top || len(a.fields) != len(b.fields) {
		return false
	}
	for i := range a.fields {
		if a.fields[i] != b.fields[i] {
			return false
		}
	}
	return true
}

// overlay returns s with the setup's field writes applied, built in buf.
func (s fieldState) overlay(setup accfg.Setup, buf []field[*ir.Value]) fieldState {
	out := fieldState{top: s.top, fields: append(buf[:0], s.fields...)}
	for i := 0; i < setup.NumFields(); i++ {
		f := setup.Field(i)
		out.fields = set(out.fields, f.Name, f.Value)
	}
	return out
}

// meet intersects two lattice elements below TOP, built in buf.
func meet(a, b fieldState, buf []field[*ir.Value]) fieldState {
	out := fieldState{fields: buf[:0]}
	for _, f := range a.fields {
		if i, ok := search(b.fields, f.name); ok && b.fields[i].val == f.val {
			out.fields = append(out.fields, f)
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
		fs.states[v] = fieldState{top: true}
	}

	// Fixpoint iteration: monotone descending from TOP, terminates.
	for round := 0; round < len(stateValues)+2; round++ {
		changed := false
		for _, v := range stateValues {
			next := fs.transfer(v)
			if !next.equal(fs.states[v]) {
				// next may live in fs.buf: keep a copy.
				next.fields = slices.Clone(next.fields)
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

// chainStep is one step back along a state chain, the switch the fixpoint
// and MayWrite share: a setup result is made of the setup (returned) over
// its in-state; a loop-carried argument or result of the initial and the
// yielded state; a branch result of both yields. from lists those
// predecessors, nil entries skipped. ok is false for a state of any other
// origin, about which nothing is known.
func chainStep(v *ir.Value) (s accfg.Setup, from [2]*ir.Value, ok bool) {
	if loop, i, carried := scf.Carried(v); carried {
		return s, [2]*ir.Value{loop.InitArg(i), loop.Yielded(i)}, true
	}
	def := v.DefiningOp()
	if s, ok = accfg.AsSetup(def); ok {
		return s, [2]*ir.Value{s.InState()}, true
	}
	if branch, isIf := scf.AsIf(def); isIf {
		i, ty, ey := v.ResultIndex(), branch.ThenYield(), branch.ElseYield()
		if ty != nil && ey != nil && i < ty.NumOperands() && i < ey.NumOperands() {
			return s, [2]*ir.Value{ty.Operand(i), ey.Operand(i)}, true
		}
	}
	return s, from, false
}

// transfer recomputes the lattice element for one state value from its
// definition: a setup's fields overlaid on its in-state, or the meet of a
// carried value's or branch result's two predecessors.
func (fs *FieldStates) transfer(v *ir.Value) fieldState {
	s, from, ok := chainStep(v)
	if !ok {
		return fieldState{}
	}
	a := fs.lookup(from[0])
	var next fieldState
	switch b := fs.lookup(from[1]); {
	case s.Op != nil:
		next = a.overlay(s, fs.buf)
	case from[1] == nil || b.top:
		return a
	case a.top:
		return b
	default:
		next = meet(a, b, fs.buf)
	}
	fs.buf = next.fields
	return next
}

// lookup returns v's lattice element; a value the analysis did not collect
// is bottom (nothing known).
func (fs *FieldStates) lookup(v *ir.Value) fieldState { return fs.states[v] }

// Known returns the SSA value the named field is guaranteed to hold when
// state is live, or nil when unknown.
func (fs *FieldStates) Known(state *ir.Value, field string) *ir.Value {
	s := fs.lookup(state)
	if i, ok := search(s.fields, field); ok && !s.top {
		return s.fields[i].val
	}
	return nil
}

// MayWrite reports whether some path to state may have written the named
// field, known value or not. It walks the chains the known-fields fixpoint
// follows (setup inputs, loop inits and yields, branch yields), on demand:
// PackedMate asks only for a mate with no known value, to tell "never
// written, still at its reset value" from "written with a value the meet
// dropped". A state of any other origin may have written anything.
func MayWrite(state *ir.Value, field string) bool {
	seen := map[*ir.Value]bool{}
	work := []*ir.Value{state}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if v == nil || seen[v] {
			continue
		}
		seen[v] = true
		s, from, ok := chainStep(v)
		if !ok || s.Op != nil && s.FieldValue(field) != nil {
			return true
		}
		work = append(work, from[:]...)
	}
	return false
}

// PackedMate is the one rule for what a setup's write packs into a field it
// shares the write with but does not carry: on a bit-packed port (paper
// Table 1 / Listing 1) one write rewrites every field of its register pair.
// The mate gets the value known at the setup's in-state; nil, the reset
// value 0, when the setup is unchained or no path to its in-state wrote the
// field; and ok is false when some path wrote it with a value the meet
// dropped, which nothing can re-materialize. The lowering packs exactly
// this and the static checker reads it, so the two cannot disagree — not
// even when two state chains interleave and the chain's value differs from
// the one in the register.
func PackedMate(fs *FieldStates, s accfg.Setup, field string) (v *ir.Value, ok bool) {
	if in := s.InState(); in != nil {
		v = fs.Known(in, field)
		return v, v != nil || !MayWrite(in, field)
	}
	return nil, true
}
