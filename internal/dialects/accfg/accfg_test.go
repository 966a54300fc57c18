package accfg_test

import (
	"strings"
	"testing"

	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/fnc"
	"configwall/internal/ir"
)

func setup(t testing.TB) (*ir.Module, *ir.Builder) {
	t.Helper()
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	return m, ir.AtEnd(f.Body())
}

func TestSetupLaunchAwaitRoundTrip(t *testing.T) {
	m, b := setup(t)
	c := arith.NewConstant(b, 5, ir.I64)
	s := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "x", Value: c}})
	l := accfg.NewLaunch(b, s.State())
	a := accfg.NewAwait(b, l.Token())
	fnc.NewReturn(b)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}

	if s.Accelerator() != "acc" || l.Accelerator() != "acc" {
		t.Error("accelerator name lost")
	}
	if l.State() != s.State() || a.Token() != l.Token() {
		t.Error("SSA plumbing wrong")
	}
	if s.State().Type().String() != `!accfg.state<"acc">` {
		t.Errorf("state type prints as %s", s.State().Type())
	}
	if l.Token().Type().String() != `!accfg.token<"acc">` {
		t.Errorf("token type prints as %s", l.Token().Type())
	}
}

func TestSetupFieldOrderingPreserved(t *testing.T) {
	m, b := setup(t)
	vals := make([]*ir.Value, 4)
	names := []string{"d", "a", "c", "b"}
	fields := make([]accfg.Field, 4)
	for i, n := range names {
		vals[i] = arith.NewConstant(b, int64(i), ir.I64)
		fields[i] = accfg.Field{Name: n, Value: vals[i]}
	}
	s := accfg.NewSetup(b, "acc", nil, fields)
	l := accfg.NewLaunch(b, s.State())
	accfg.NewAwait(b, l.Token())
	fnc.NewReturn(b)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}

	got := s.FieldNames()
	for i, n := range names {
		if got[i] != n {
			t.Fatalf("field order changed: %v", got)
		}
		if s.FieldValue(n) != vals[i] {
			t.Errorf("field %s maps to wrong value", n)
		}
	}
	all := s.Fields()
	if len(all) != 4 || all[0].Name != "d" || all[3].Name != "b" {
		t.Errorf("Fields() wrong: %v", all)
	}
}

func TestVerifierErrors(t *testing.T) {
	t.Run("duplicate field", func(t *testing.T) {
		m, b := setup(t)
		c := arith.NewConstant(b, 1, ir.I64)
		s := accfg.NewSetup(b, "acc", nil, []accfg.Field{
			{Name: "x", Value: c}, {Name: "x", Value: c},
		})
		_ = s
		fnc.NewReturn(b)
		if err := ir.Verify(m); err == nil {
			t.Error("verifier accepted duplicate field")
		}
	})
	t.Run("state accelerator mismatch on launch", func(t *testing.T) {
		m, b := setup(t)
		c := arith.NewConstant(b, 1, ir.I64)
		s := accfg.NewSetup(b, "acc1", nil, []accfg.Field{{Name: "x", Value: c}})
		bad := ir.NewOp(accfg.OpLaunch, []*ir.Value{s.State()}, []ir.Type{ir.TokenType{Accelerator: "acc2"}})
		b.Insert(bad)
		fnc.NewReturn(b)
		if err := ir.Verify(m); err == nil {
			t.Error("verifier accepted cross-accelerator launch")
		}
	})
	t.Run("chained state accelerator mismatch", func(t *testing.T) {
		m, b := setup(t)
		s1 := accfg.NewSetup(b, "acc1", nil, nil)
		bad := ir.NewOp(accfg.OpSetup, []*ir.Value{s1.State()}, []ir.Type{ir.StateType{Accelerator: "acc2"}})
		bad.SetAttr("accelerator", ir.StrAttr("acc2"))
		bad.SetAttr("fields", ir.StringsAttr())
		bad.SetAttr("in_state", ir.UnitAttr{})
		b.Insert(bad)
		fnc.NewReturn(b)
		if err := ir.Verify(m); err == nil {
			t.Error("verifier accepted cross-accelerator state chain")
		}
	})
	t.Run("field named by a non-string", func(t *testing.T) {
		m, b := setup(t)
		c := arith.NewConstant(b, 1, ir.I64)
		s := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "x", Value: c}})
		s.Op.SetAttr("fields", ir.ArrayAttr{Elems: []ir.Attribute{ir.IntAttr(1)}})
		fnc.NewReturn(b)
		if err := ir.Verify(m); err == nil || !strings.Contains(err.Error(), "not a string") {
			t.Errorf("verifier on a field named by an integer: %v", err)
		}
	})
	t.Run("await non-token", func(t *testing.T) {
		m, b := setup(t)
		c := arith.NewConstant(b, 1, ir.I64)
		bad := ir.NewOp(accfg.OpAwait, []*ir.Value{c}, nil)
		b.Insert(bad)
		fnc.NewReturn(b)
		if err := ir.Verify(m); err == nil {
			t.Error("verifier accepted await of non-token")
		}
	})
}

func TestEffectsOf(t *testing.T) {
	m, b := setup(t)
	defer func() { _ = m }()

	pure := arith.NewConstant(b, 1, ir.I64).DefiningOp()
	if accfg.EffectsOf(pure) != ir.EffectsNone {
		t.Error("pure arith must preserve accelerator state")
	}
	call := fnc.NewCall(b, "external", nil, nil)
	if accfg.EffectsOf(call) != ir.EffectsAll {
		t.Error("unknown call must clobber accelerator state")
	}
	call.SetAttr(accfg.AttrEffects, ir.EffectsAttr{Kind: ir.EffectsNone})
	if accfg.EffectsOf(call) != ir.EffectsNone {
		t.Error("effects<none> annotation ignored")
	}
	store := b.Create("memref.store", nil, nil)
	if accfg.EffectsOf(store) != ir.EffectsNone {
		t.Error("plain memory traffic must not clobber accelerator CSRs")
	}
	unknown := b.Create("mystery.op", nil, nil)
	if accfg.EffectsOf(unknown) != ir.EffectsAll {
		t.Error("unregistered op must conservatively clobber")
	}
	unknown.SetAttr(accfg.AttrEffects, ir.EffectsAttr{Kind: ir.EffectsAll})
	if !accfg.ClobbersState(unknown) {
		t.Error("ClobbersState disagrees with EffectsOf")
	}
	fnc.NewReturn(b)
}

func TestInStateManipulation(t *testing.T) {
	m, b := setup(t)
	c := arith.NewConstant(b, 1, ir.I64)
	s1 := accfg.NewSetup(b, "acc", nil, nil)
	s2 := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "x", Value: c}})
	fnc.NewReturn(b)

	if s2.HasInState() {
		t.Fatal("fresh setup must not chain")
	}
	s2.SetInState(s1.State())
	if !s2.HasInState() || s2.InState() != s1.State() {
		t.Fatal("SetInState failed")
	}
	if s2.FieldValue("x") != c {
		t.Fatal("field shifted by SetInState")
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	// Re-setting replaces rather than stacking.
	s0 := accfg.NewSetup(ir.Before(s1.Op), "acc", nil, nil)
	s2.SetInState(s0.State())
	if s2.InState() != s0.State() || s2.Op.NumOperands() != 2 {
		t.Fatal("SetInState did not replace the previous chain")
	}
	s2.ClearInState()
	if s2.HasInState() || s2.Op.NumOperands() != 1 {
		t.Fatal("ClearInState failed")
	}
	if s2.FieldValue("x") != c {
		t.Fatal("field lost by ClearInState")
	}
}

func TestRemoveAddField(t *testing.T) {
	m, b := setup(t)
	c1 := arith.NewConstant(b, 1, ir.I64)
	c2 := arith.NewConstant(b, 2, ir.I64)
	s := accfg.NewSetup(b, "acc", nil, []accfg.Field{
		{Name: "x", Value: c1}, {Name: "y", Value: c2},
	})
	fnc.NewReturn(b)

	if s.RemoveField("nope") {
		t.Error("RemoveField of absent field returned true")
	}
	if !s.RemoveField("x") {
		t.Error("RemoveField(x) failed")
	}
	if s.NumFields() != 1 || s.FieldValue("y") != c2 {
		t.Error("wrong fields after removal")
	}
	s.AddField("z", c1)
	if s.NumFields() != 2 || s.FieldValue("z") != c1 {
		t.Error("AddField failed")
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}
