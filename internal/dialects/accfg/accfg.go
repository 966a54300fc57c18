// Package accfg implements the paper's compiler abstraction (§5.1): an IR
// dialect that captures the configure / launch / await programming model of
// host-controlled accelerators, making configuration state visible to the
// optimizer instead of hiding it behind volatile inline assembly.
//
// Operations:
//
//   - accfg.setup writes named configuration fields and produces a
//     !accfg.state value representing the register file contents. A setup
//     may take the previous state as input, which lets passes compute the
//     "setup delta" between consecutive configurations.
//   - accfg.launch reads a state and starts the accelerator, producing a
//     !accfg.token.
//   - accfg.await blocks until the token's computation completes (a no-op
//     on sequentially-configured accelerators).
//
// The IR constraint from the paper holds: per accelerator only one state
// value is "live" at a time; state values form a chain through the program.
package accfg

import (
	"fmt"
	"slices"

	"configwall/internal/ir"
)

// Op names.
const (
	OpSetup  = "accfg.setup"
	OpLaunch = "accfg.launch"
	OpAwait  = "accfg.await"
)

// AttrEffects is the attribute key carrying an ir.EffectsAttr on foreign
// (non-accfg) ops, declaring whether they clobber accelerator state.
const AttrEffects = "accfg.effects"

func init() {
	ir.Register(ir.OpInfo{
		Name:    OpSetup,
		Summary: "write accelerator configuration registers",
		Verify:  verifySetup,
	})
	ir.Register(ir.OpInfo{
		Name:    OpLaunch,
		Summary: "launch the accelerator from a configuration state",
		Verify:  verifyLaunch,
	})
	ir.Register(ir.OpInfo{
		Name:    OpAwait,
		Summary: "await an accelerator launch token",
		Verify:  verifyAwait,
	})
}

func verifySetup(op *ir.Op) error {
	s, ok := AsSetup(op)
	if !ok {
		return fmt.Errorf("malformed setup")
	}
	if _, ok := op.StringAttrValue("accelerator"); !ok {
		return fmt.Errorf("missing 'accelerator' attribute")
	}
	nFields := s.NumFields()
	nOperands := op.NumOperands()
	if s.HasInState() {
		nOperands--
		st, isState := op.Operand(0).Type().(ir.StateType)
		if !isState {
			return fmt.Errorf("input state operand must be !accfg.state")
		}
		if st.Accelerator != s.Accelerator() {
			return fmt.Errorf("input state is for accelerator %q, setup is for %q", st.Accelerator, s.Accelerator())
		}
	}
	if nFields != nOperands {
		return fmt.Errorf("%d field names but %d field operands", nFields, nOperands)
	}
	// A setup names a handful of fields: compare them pairwise instead of
	// building a set on every verification.
	elems := s.fieldElems()
	for i, e := range elems {
		f, ok := e.(ir.StringAttr)
		if !ok {
			return fmt.Errorf("field %d is named by %s, not a string", i, e)
		}
		for _, earlier := range elems[:i] {
			if earlier.(ir.StringAttr) == f {
				return fmt.Errorf("duplicate field %q", f.Value())
			}
		}
	}
	if op.NumResults() != 1 {
		return fmt.Errorf("expects exactly one state result")
	}
	rt, isState := op.Result(0).Type().(ir.StateType)
	if !isState {
		return fmt.Errorf("result must be !accfg.state")
	}
	if rt.Accelerator != s.Accelerator() {
		return fmt.Errorf("result state accelerator %q does not match %q", rt.Accelerator, s.Accelerator())
	}
	return nil
}

func verifyLaunch(op *ir.Op) error {
	if op.NumOperands() != 1 || op.NumResults() != 1 {
		return fmt.Errorf("expects one state operand and one token result")
	}
	st, ok := op.Operand(0).Type().(ir.StateType)
	if !ok {
		return fmt.Errorf("operand must be !accfg.state")
	}
	tk, ok := op.Result(0).Type().(ir.TokenType)
	if !ok {
		return fmt.Errorf("result must be !accfg.token")
	}
	if st.Accelerator != tk.Accelerator {
		return fmt.Errorf("state accelerator %q does not match token %q", st.Accelerator, tk.Accelerator)
	}
	return nil
}

func verifyAwait(op *ir.Op) error {
	if op.NumOperands() != 1 || op.NumResults() != 0 {
		return fmt.Errorf("expects one token operand and no results")
	}
	if _, ok := op.Operand(0).Type().(ir.TokenType); !ok {
		return fmt.Errorf("operand must be !accfg.token")
	}
	return nil
}

// Setup is a structured view over an accfg.setup op.
//
// Operand layout: [inState?] fieldValues... — HasInState distinguishes the
// two shapes via the "in_state" unit attribute.
type Setup struct {
	Op *ir.Op
}

// AsSetup wraps op, or returns ok=false when op is not accfg.setup.
func AsSetup(op *ir.Op) (Setup, bool) {
	if op == nil || op.Name() != OpSetup {
		return Setup{}, false
	}
	return Setup{op}, true
}

// Accelerator returns the target accelerator name.
func (s Setup) Accelerator() string {
	a, _ := s.Op.StringAttrValue("accelerator")
	return a
}

// HasInState reports whether the setup chains from a previous state.
func (s Setup) HasInState() bool { return s.Op.HasAttr("in_state") }

// InState returns the chained previous state, or nil.
func (s Setup) InState() *ir.Value {
	if !s.HasInState() {
		return nil
	}
	return s.Op.Operand(0)
}

// SetInState chains the setup from prev (rewiring an existing chain input
// when present).
func (s Setup) SetInState(prev *ir.Value) {
	if s.HasInState() {
		s.Op.SetOperand(0, prev)
		return
	}
	// Insert as first operand: rebuild operand list.
	operands := append([]*ir.Value{prev}, s.Op.Operands()...)
	s.Op.SetOperands(operands)
	s.Op.SetAttr("in_state", ir.UnitAttr{})
}

// ClearInState removes the chained input state.
func (s Setup) ClearInState() {
	if !s.HasInState() {
		return
	}
	s.Op.EraseOperand(0)
	s.Op.RemoveAttr("in_state")
}

// State returns the produced state value.
func (s Setup) State() *ir.Value { return s.Op.Result(0) }

// FieldNames returns a snapshot of the configured field names in operand
// order.
func (s Setup) FieldNames() []string {
	names := make([]string, s.NumFields())
	for i := range names {
		names[i] = s.FieldName(i)
	}
	return names
}

// fieldElems returns the elements of the "fields" attribute in place. The
// verifier holds every one to a string; the accessors read one that is not
// as the name "".
func (s Setup) fieldElems() []ir.Attribute {
	a, _ := s.Op.Attr("fields").(ir.ArrayAttr)
	return a.Elems
}

// fieldBase returns the operand index of field 0.
func (s Setup) fieldBase() int {
	if s.HasInState() {
		return 1
	}
	return 0
}

// NumFields returns the number of configured fields. With FieldName and
// Field it reads the setup in place: for i := 0; i < s.NumFields(); i++.
func (s Setup) NumFields() int { return len(s.fieldElems()) }

// FieldName returns the name of field i, in operand order.
func (s Setup) FieldName(i int) string {
	f, _ := s.fieldElems()[i].(ir.StringAttr)
	return f.Value()
}

// Field returns field i, in operand order: its name and the value written.
func (s Setup) Field(i int) Field {
	return Field{Name: s.FieldName(i), Value: s.Op.Operand(s.fieldBase() + i)}
}

// FieldValue returns the SSA value written to the named field, or nil.
func (s Setup) FieldValue(name string) *ir.Value {
	for i, e := range s.fieldElems() {
		if f, _ := e.(ir.StringAttr); f.Value() == name {
			return s.Op.Operand(s.fieldBase() + i)
		}
	}
	return nil
}

// Fields returns a snapshot of the (name, value) pairs in operand order.
func (s Setup) Fields() []Field {
	out := make([]Field, s.NumFields())
	for i := range out {
		out[i] = s.Field(i)
	}
	return out
}

// RemoveField deletes the named field (name and operand). Reports whether
// the field was present.
func (s Setup) RemoveField(name string) bool {
	elems := s.fieldElems()
	for i, e := range elems {
		if f, _ := e.(ir.StringAttr); f.Value() != name {
			continue
		}
		s.Op.EraseOperand(s.fieldBase() + i)
		s.Op.SetAttr("fields", ir.ArrayAttr{Elems: slices.Delete(slices.Clone(elems), i, i+1)})
		return true
	}
	return false
}

// AddField appends a field write to the setup.
func (s Setup) AddField(name string, v *ir.Value) {
	// Clipped, the list is copied rather than appended to in place: a
	// clone of the op shares it.
	names := append(slices.Clip(s.fieldElems()), ir.StrAttr(name))
	s.Op.AddOperand(v)
	s.Op.SetAttr("fields", ir.ArrayAttr{Elems: names})
}

// Field is one named configuration register write.
type Field struct {
	Name  string
	Value *ir.Value
}

// Launch is a structured view over an accfg.launch op.
type Launch struct {
	Op *ir.Op
}

// AsLaunch wraps op, or returns ok=false when op is not accfg.launch.
func AsLaunch(op *ir.Op) (Launch, bool) {
	if op == nil || op.Name() != OpLaunch {
		return Launch{}, false
	}
	return Launch{op}, true
}

// State returns the launched configuration state operand.
func (l Launch) State() *ir.Value { return l.Op.Operand(0) }

// Token returns the produced token value.
func (l Launch) Token() *ir.Value { return l.Op.Result(0) }

// Accelerator returns the launched accelerator's name.
func (l Launch) Accelerator() string {
	return l.Op.Operand(0).Type().(ir.StateType).Accelerator
}

// Await is a structured view over an accfg.await op.
type Await struct {
	Op *ir.Op
}

// AsAwait wraps op, or returns ok=false when op is not accfg.await.
func AsAwait(op *ir.Op) (Await, bool) {
	if op == nil || op.Name() != OpAwait {
		return Await{}, false
	}
	return Await{op}, true
}

// Token returns the awaited token operand.
func (a Await) Token() *ir.Value { return a.Op.Operand(0) }

// NewSetup builds an accfg.setup for the named accelerator. fields supplies
// the register writes; inState may be nil for an unchained setup.
func NewSetup(b *ir.Builder, accelerator string, inState *ir.Value, fields []Field) Setup {
	names := make([]ir.Attribute, len(fields))
	operands := make([]*ir.Value, 0, len(fields)+1)
	if inState != nil {
		operands = append(operands, inState)
	}
	for i, f := range fields {
		names[i] = ir.StrAttr(f.Name)
		operands = append(operands, f.Value)
	}
	op := b.Create(OpSetup, operands, []ir.Type{ir.StateType{Accelerator: accelerator}})
	op.SetAttr("accelerator", ir.StrAttr(accelerator))
	op.SetAttr("fields", ir.ArrayAttr{Elems: names})
	if inState != nil {
		op.SetAttr("in_state", ir.UnitAttr{})
	}
	return Setup{op}
}

// NewLaunch builds an accfg.launch reading state.
func NewLaunch(b *ir.Builder, state *ir.Value) Launch {
	accel := state.Type().(ir.StateType).Accelerator
	op := b.Create(OpLaunch, []*ir.Value{state}, []ir.Type{ir.TokenType{Accelerator: accel}})
	return Launch{op}
}

// NewAwait builds an accfg.await on token.
func NewAwait(b *ir.Builder, token *ir.Value) Await {
	op := b.Create(OpAwait, []*ir.Value{token}, nil)
	return Await{op}
}

// EffectsOf returns how op interacts with accelerator configuration state:
//
//   - accfg ops themselves are handled structurally by the passes,
//   - ops annotated #accfg.effects<none> preserve state,
//   - ops annotated #accfg.effects<all> clobber state,
//   - pure registered ops preserve state,
//   - everything else (unknown calls, etc.) conservatively clobbers.
func EffectsOf(op *ir.Op) ir.EffectsKind {
	if a, ok := op.Attr(AttrEffects).(ir.EffectsAttr); ok {
		return a.Kind
	}
	if ir.IsPure(op) {
		return ir.EffectsNone
	}
	switch op.Name() {
	case OpSetup, OpLaunch, OpAwait:
		return ir.EffectsNone
	case "scf.yield", "fnc.return":
		return ir.EffectsNone
	case "memref.load", "memref.store", "memref.alloc", "memref.dim", "memref.extract_pointer":
		// Plain memory traffic does not touch accelerator CSRs.
		return ir.EffectsNone
	}
	return ir.EffectsAll
}

// ClobbersState reports whether op (ignoring nested regions) destroys
// accelerator configuration state.
func ClobbersState(op *ir.Op) bool {
	switch op.Name() {
	case "scf.for", "scf.if":
		// Region ops are analysed recursively by the passes.
		return false
	}
	return EffectsOf(op) == ir.EffectsAll
}
