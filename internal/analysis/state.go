package analysis

import (
	"strconv"

	"configwall/internal/accel"
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/memref"
	"configwall/internal/ir"
)

// absState is the abstract machine state both engines step an op over: the
// path enumerator (exec.go) carries one along each path, the flow summary
// (summarize.go) clones and joins them at control-flow splits. It holds the
// abstract SSA environment and the per-accelerator abstract staging
// registers, and the known fields of the function fn, which every clone
// shares: AnalyzeFields fills them the first time a setup leaves a packed
// mate out, and most functions never ask.
type absState struct {
	env     map[*ir.Value]AbsVal
	staging map[string]FieldState
	fn      *ir.Op
	known   *FieldStates
}

// entryState returns the state on entry to function f: argument i is the
// symbol argi, no staging register written; known is f's, unfilled. values
// sizes the environment for the values the caller expects it to hold.
func entryState(f *ir.Op, known *FieldStates, values int) absState {
	s := absState{env: make(map[*ir.Value]AbsVal, values), staging: map[string]FieldState{}, fn: f, known: known}
	body := f.Region(0).Block()
	for i := 0; i < body.NumArgs(); i++ {
		s.env[body.Arg(i)] = Sym("arg" + strconv.Itoa(i))
	}
	return s
}

// resolve returns the abstract value of v. Everything defined before the
// current program point has been evaluated, so a miss is an enclosing-scope
// value the engine chose not to model.
func (s absState) resolve(v *ir.Value) AbsVal {
	if av, ok := s.env[v]; ok {
		return av
	}
	return Top()
}

// top degrades every result of op to ⊤.
func (s absState) top(op *ir.Op) {
	for i := 0; i < op.NumResults(); i++ {
		s.env[op.Result(i)] = Top()
	}
}

// eval steps the state over op when op is one both engines model the same
// way — scalar arithmetic, pointer and shape queries, accfg.setup — and
// reports whether it was. Allocations, memory accesses, launches and
// control flow are where the engines differ (symbol naming, events,
// forking versus joining) and stay with them.
func (s absState) eval(op *ir.Op) bool {
	switch op.Name() {
	case arith.OpConstant:
		c, _ := op.IntAttrValue("value")
		s.env[op.Result(0)] = Const(c)

	case arith.OpAddI, arith.OpSubI, arith.OpMulI, arith.OpDivUI, arith.OpRemUI,
		arith.OpAndI, arith.OpOrI, arith.OpXOrI, arith.OpShLI, arith.OpShRUI:
		s.env[op.Result(0)] = evalBinary(op.Name(), s.resolve(op.Operand(0)), s.resolve(op.Operand(1)), op.Result(0).Type())

	case arith.OpCmpI:
		pred, _ := op.StringAttrValue("predicate")
		s.env[op.Result(0)] = evalCmp(pred, s.resolve(op.Operand(0)), s.resolve(op.Operand(1)))

	case arith.OpSelect:
		s.env[op.Result(0)] = evalSelect(s.resolve(op.Operand(0)), s.resolve(op.Operand(1)), s.resolve(op.Operand(2)))

	case arith.OpIndexCast:
		// index and i64 are both 64-bit here: the cast is the identity.
		s.env[op.Result(0)] = s.resolve(op.Operand(0))

	case memref.OpExtractPointer:
		s.env[op.Result(0)] = wrap1("ptr", s.resolve(op.Operand(0)))

	case memref.OpDim:
		s.env[op.Result(0)] = wrap1("dim", s.resolve(op.Operand(0)))

	case accfg.OpSetup:
		s.applySetup(op)

	default:
		return false
	}
	return true
}

// applySetup writes a setup's fields into the abstract staging registers,
// and into each packed mate the setup leaves out (accel.PortFor's Mates)
// what PackedMate says the lowering packs there: the SSA value known on the
// setup's chain, the reset value 0 (left unwritten if it never was), or ⊤
// when the meet dropped it. An accelerator nobody registered (hand-written
// test modules) has no mates and is field-granular. The writes go to a
// fresh copy of the staging: the old one may be shared.
func (s absState) applySetup(op *ir.Op) {
	setup, _ := accfg.AsSetup(op)
	accelerator := setup.Accelerator()
	port := accel.PortFor(accelerator)
	st := s.staging[accelerator].clone(setup.NumFields())
	for i := 0; i < setup.NumFields(); i++ {
		f := setup.Field(i)
		st = set(st, f.Name, s.resolve(f.Value))
		for _, mate := range port.Mates(f.Name) {
			if setup.FieldValue(mate) != nil {
				continue
			}
			if s.known.states == nil {
				*s.known = *AnalyzeFields(s.fn)
			}
			if v, ok := PackedMate(s.known, setup, mate); !ok {
				st = set(st, mate, Top())
			} else if v != nil {
				st = set(st, mate, s.resolve(v))
			} else if _, prev := search(st, mate); prev {
				st = set(st, mate, Const(0))
			}
		}
	}
	s.staging[accelerator] = st
}

// havoc degrades every staging field the subtree under root might write
// (including packed group mates) to ⊤.
func (s absState) havoc(root *ir.Op) {
	ir.Walk(root, func(o *ir.Op) {
		setup, ok := accfg.AsSetup(o)
		if !ok {
			return
		}
		accelerator := setup.Accelerator()
		port := accel.PortFor(accelerator)
		st := s.staging[accelerator].clone(setup.NumFields())
		for i := 0; i < setup.NumFields(); i++ {
			name := setup.FieldName(i)
			st = set(st, name, Top())
			for _, mate := range port.Mates(name) {
				st = set(st, mate, Top())
			}
		}
		s.staging[accelerator] = st
	})
}

// clone copies the environment and the map of staging registers; the
// field states themselves are shared, since nothing changes one in place.
func (s absState) clone() absState {
	out := absState{env: make(map[*ir.Value]AbsVal, len(s.env)), staging: make(map[string]FieldState, len(s.staging)), fn: s.fn, known: s.known}
	for v, av := range s.env {
		out.env[v] = av
	}
	for accelerator, st := range s.staging {
		out.staging[accelerator] = st
	}
	return out
}

// join is the least upper bound of two states. A staging register set on
// one side only joins against the reset values: FieldState.join treats an
// absent field as the reset value, which is exactly the staging content of
// a path that never wrote it.
func (s absState) join(o absState) absState {
	out := s.clone()
	for v, ov := range o.env {
		if av, ok := out.env[v]; ok {
			out.env[v] = av.Join(ov)
		} else {
			out.env[v] = ov
		}
	}
	for accelerator, ost := range o.staging {
		out.staging[accelerator] = out.staging[accelerator].join(ost)
	}
	for accelerator, st := range s.staging {
		if _, ok := o.staging[accelerator]; !ok {
			out.staging[accelerator] = st.join(nil)
		}
	}
	return out
}

// equal reports lattice-element equality (fixpoint detection).
func (s absState) equal(o absState) bool {
	if len(s.env) != len(o.env) || len(s.staging) != len(o.staging) {
		return false
	}
	for v, av := range s.env {
		ov, ok := o.env[v]
		if !ok || !av.Equal(ov) {
			return false
		}
	}
	for accelerator, st := range s.staging {
		ost, ok := o.staging[accelerator]
		if !ok || !st.equal(ost) {
			return false
		}
	}
	return true
}
