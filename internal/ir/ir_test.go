package ir_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

// buildSampleModule creates a function with a loop containing an accfg
// setup/launch/await cluster — the canonical shape from paper Figure 6/9.
func buildSampleModule(t testing.TB) *ir.Module {
	t.Helper()
	m := sampleModule()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("sample module does not verify: %v", err)
	}
	return m
}

// sampleModule is buildSampleModule without the verification, for
// goroutines that may not call t.Fatal.
func sampleModule() *ir.Module {
	m := ir.NewModule()
	f := fnc.NewFunc("kernel", ir.FuncType([]ir.Type{ir.I64}, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	ptr := f.Body().Arg(0)

	lb := arith.NewConstant(b, 0, ir.Index)
	ub := arith.NewConstant(b, 10, ir.Index)
	step := arith.NewConstant(b, 1, ir.Index)
	loop := scf.NewFor(b, lb, ub, step)
	lb2 := ir.AtEnd(loop.Body())
	iv := arith.NewIndexCast(lb2, loop.InductionVar(), ir.I64)
	setup := accfg.NewSetup(lb2, "gemm", nil, []accfg.Field{
		{Name: "A", Value: ptr},
		{Name: "i", Value: iv},
	})
	launch := accfg.NewLaunch(lb2, setup.State())
	accfg.NewAwait(lb2, launch.Token())
	scf.NewYield(lb2)
	fnc.NewReturn(b)
	return m
}

func TestBuildAndVerify(t *testing.T) {
	m := buildSampleModule(t)
	if got := ir.CountOpsNamed(m, "accfg.setup"); got != 1 {
		t.Errorf("setup count = %d, want 1", got)
	}
	if got := ir.CountOpsNamed(m, "scf.for"); got != 1 {
		t.Errorf("for count = %d, want 1", got)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	m := buildSampleModule(t)
	text := ir.PrintModule(m)
	m2, err := ir.Parse(text)
	if err != nil {
		t.Fatalf("parse of printed module failed: %v\n%s", err, text)
	}
	if err := ir.Verify(m2); err != nil {
		t.Fatalf("reparsed module does not verify: %v", err)
	}
	text2 := ir.PrintModule(m2)
	if text != text2 {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"undefined value", `%0 = "arith.addi"(%x, %x) : (i64, i64) -> (i64)`, "undefined value"},
		{"type mismatch", `%0 = "arith.constant"() {value = 1 : i32} : () -> (i32)` + "\n" + `%1 = "arith.addi"(%0, %0) : (i64, i64) -> (i64)`, "type mismatch"},
		{"bad op name", `%0 = arith.constant() : () -> (i64)`, "quoted op name"},
		{"arity mismatch", `%0, %1 = "arith.constant"() {value = 1 : i64} : () -> (i64)`, "results"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ir.Parse(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got success", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestReplaceAllUsesWith(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c1 := arith.NewConstant(b, 1, ir.I64)
	c2 := arith.NewConstant(b, 2, ir.I64)
	sum := arith.NewAdd(b, c1, c1)
	fnc.NewReturn(b)

	if c1.NumUses() != 2 {
		t.Fatalf("c1 uses = %d, want 2", c1.NumUses())
	}
	c1.ReplaceAllUsesWith(c2)
	if c1.NumUses() != 0 || c2.NumUses() != 2 {
		t.Errorf("after RAUW: c1 uses = %d (want 0), c2 uses = %d (want 2)", c1.NumUses(), c2.NumUses())
	}
	def := sum.DefiningOp()
	if def.Operand(0) != c2 || def.Operand(1) != c2 {
		t.Error("operands not rewritten to c2")
	}
}

func TestEraseOperandShiftsUses(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c1 := arith.NewConstant(b, 1, ir.I64)
	c2 := arith.NewConstant(b, 2, ir.I64)
	c3 := arith.NewConstant(b, 3, ir.I64)
	op := b.Create("test.variadic", []*ir.Value{c1, c2, c3}, nil)
	fnc.NewReturn(b)

	op.EraseOperand(1)
	if op.NumOperands() != 2 {
		t.Fatalf("operands = %d, want 2", op.NumOperands())
	}
	if op.Operand(0) != c1 || op.Operand(1) != c3 {
		t.Error("remaining operands wrong after erase")
	}
	if c2.NumUses() != 0 {
		t.Errorf("c2 uses = %d, want 0", c2.NumUses())
	}
	// c3's use record must have shifted to index 1.
	if c3.NumUses() != 1 || c3.Use(0).Index != 1 {
		t.Errorf("c3 has %d uses, the first %+v: want one, at index 1", c3.NumUses(), c3.Use(0))
	}
}

func TestErasePanicsOnLiveUses(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c1 := arith.NewConstant(b, 1, ir.I64)
	arith.NewAdd(b, c1, c1)
	fnc.NewReturn(b)

	defer func() {
		if recover() == nil {
			t.Error("Erase of op with live uses should panic")
		}
	}()
	c1.DefiningOp().Erase()
}

func TestCloneIsDeepAndIndependent(t *testing.T) {
	m := buildSampleModule(t)
	clone := m.Clone()
	if err := ir.Verify(clone); err != nil {
		t.Fatalf("clone does not verify: %v", err)
	}
	if ir.PrintModule(m) != ir.PrintModule(clone) {
		t.Fatal("clone prints differently")
	}
	// Mutating the clone must not affect the original.
	var setup *ir.Op
	clone.Walk(func(op *ir.Op) {
		if op.Name() == accfg.OpSetup {
			setup = op
		}
	})
	s, _ := accfg.AsSetup(setup)
	s.RemoveField("A")
	if ir.CountOpsNamed(m, accfg.OpSetup) != 1 {
		t.Fatal("original lost its setup")
	}
	orig := findSetup(m)
	if len(orig.FieldNames()) != 2 {
		t.Errorf("original setup fields = %v, want [A i]", orig.FieldNames())
	}
}

func findSetup(m *ir.Module) accfg.Setup {
	var s accfg.Setup
	m.Walk(func(op *ir.Op) {
		if got, ok := accfg.AsSetup(op); ok {
			s = got
		}
	})
	return s
}

func TestVerifierCatchesDominance(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c1 := arith.NewConstant(b, 1, ir.I64)
	sum := arith.NewAdd(b, c1, c1)
	fnc.NewReturn(b)
	// Move the add before its operand's definition.
	sum.DefiningOp().MoveBefore(c1.DefiningOp())
	if err := ir.Verify(m); err == nil {
		t.Error("verifier accepted dominance violation")
	}
}

func TestVerifierCatchesMissingTerminator(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	arith.NewConstant(b, 1, ir.I64)
	if err := ir.Verify(m); err == nil {
		t.Error("verifier accepted missing terminator")
	}
}

func TestSetupFieldManipulation(t *testing.T) {
	m := buildSampleModule(t)
	s := findSetup(m)
	if v := s.FieldValue("i"); v == nil {
		t.Fatal("field i missing")
	}
	if !s.RemoveField("A") {
		t.Fatal("RemoveField(A) failed")
	}
	if s.FieldValue("A") != nil {
		t.Error("field A still present after removal")
	}
	if got := s.FieldNames(); len(got) != 1 || got[0] != "i" {
		t.Errorf("fields = %v, want [i]", got)
	}
	if err := ir.Verify(m); err != nil {
		t.Errorf("module invalid after field removal: %v", err)
	}
}

func TestSetupInStateChaining(t *testing.T) {
	m := buildSampleModule(t)
	s := findSetup(m)
	// Create a fresh empty setup before the loop and chain.
	loop := s.Op.Block().ParentOp()
	b := ir.Before(loop)
	pre := accfg.NewSetup(b, "gemm", nil, nil)
	s.SetInState(pre.State())
	if !s.HasInState() || s.InState() != pre.State() {
		t.Fatal("in-state not set")
	}
	if got := len(s.FieldNames()); got != 2 {
		t.Fatalf("fields = %d, want 2 after chaining", got)
	}
	if s.FieldValue("i") == nil || s.FieldValue("A") == nil {
		t.Fatal("field values shifted incorrectly")
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("module invalid after chaining: %v", err)
	}
	s.ClearInState()
	if s.HasInState() {
		t.Error("in-state still present after clear")
	}
	pre.Op.Erase()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("module invalid after unchaining: %v", err)
	}
}

// TestArithFoldProperty checks the constant folder against direct evaluation
// for random inputs (property-based, testing/quick).
func TestArithFoldProperty(t *testing.T) {
	ops := []string{arith.OpAddI, arith.OpSubI, arith.OpMulI, arith.OpAndI, arith.OpOrI, arith.OpXOrI}
	prop := func(a, b int64, opIdx uint8) bool {
		name := ops[int(opIdx)%len(ops)]
		m := ir.NewModule()
		f := fnc.NewFunc("f", ir.FuncType(nil, []ir.Type{ir.I64}))
		m.Append(f.Op)
		bld := ir.AtEnd(f.Body())
		ca := arith.NewConstant(bld, a, ir.I64)
		cb := arith.NewConstant(bld, b, ir.I64)
		r := arith.NewBinary(bld, name, ca, cb)
		fnc.NewReturn(bld, r)

		ir.ApplyPatternsGreedy(m.Op())

		ret := f.Body().Last()
		got, ok := arith.ConstantValue(ret.Operand(0))
		if !ok {
			return false
		}
		want, err := arith.Eval(name, a, b, ir.I64)
		return err == nil && got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGreedyDCERemovesDeadPureOps(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c := arith.NewConstant(b, 1, ir.I64)
	arith.NewAdd(b, c, c) // dead
	fnc.NewReturn(b)

	ir.ApplyPatternsGreedy(m.Op())
	if got := ir.CountOpsNamed(m, arith.OpAddI); got != 0 {
		t.Errorf("dead add not eliminated (count %d)", got)
	}
	if got := ir.CountOpsNamed(m, arith.OpConstant); got != 0 {
		t.Errorf("dead constant not eliminated (count %d)", got)
	}
}

func TestVolatileBlocksDCE(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c := arith.NewConstant(b, 1, ir.I64)
	dead := arith.NewAdd(b, c, c)
	dead.DefiningOp().SetAttr("volatile", ir.UnitAttr{})
	fnc.NewReturn(b)

	ir.ApplyPatternsGreedy(m.Op())
	if got := ir.CountOpsNamed(m, arith.OpAddI); got != 1 {
		t.Errorf("volatile add eliminated (count %d, want 1)", got)
	}
}

func TestPassManagerRunsAndVerifies(t *testing.T) {
	m := buildSampleModule(t)
	ran := false
	pm := ir.NewPassManager(ir.PassFunc{
		PassName: "test-pass",
		Fn: func(m *ir.Module) error {
			ran = true
			return nil
		},
	})
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("pass did not run")
	}
	if len(pm.Changed) != 0 {
		t.Errorf("Changed = %q for a pass that changed nothing", pm.Changed)
	}
}

// eraseAll is a pass that erases every op named name.
func eraseAll(pass, name string) ir.Pass {
	return ir.PassFunc{PassName: pass, Fn: func(m *ir.Module) error {
		var doomed []*ir.Op
		m.Walk(func(op *ir.Op) {
			if op.Name() == name {
				doomed = append(doomed, op)
			}
		})
		for _, op := range doomed {
			op.Erase()
		}
		return nil
	}}
}

// TestPassManagerLog: Log leaves the module and Changed as Run does and
// returns one line per pass with the op counts around it; a pass that
// breaks the IR fails it as it fails Run.
func TestPassManagerLog(t *testing.T) {
	pipeline := func() *ir.PassManager {
		return ir.NewPassManager(ir.PassFunc{PassName: "keep", Fn: func(*ir.Module) error { return nil }},
			eraseAll("drop-awaits", accfg.OpAwait))
	}
	want := buildSampleModule(t)
	if err := pipeline().Run(want); err != nil {
		t.Fatal(err)
	}
	m, pm := buildSampleModule(t), pipeline()
	ops := ir.CountOps(m)
	log, err := pm.Log(m)
	if err != nil {
		t.Fatal(err)
	}
	if ir.PrintModule(m) != ir.PrintModule(want) {
		t.Errorf("Log left\n%s\nRun left\n%s", ir.PrintModule(m), ir.PrintModule(want))
	}
	if !slices.Equal(pm.Changed, []string{"drop-awaits"}) {
		t.Errorf("Log's Changed = %q, want [drop-awaits]", pm.Changed)
	}
	wantLog := []string{
		fmt.Sprintf("%-32s ops: %4d -> %4d", "keep", ops, ops),
		fmt.Sprintf("%-32s ops: %4d -> %4d", "drop-awaits", ops, ops-1),
	}
	if !slices.Equal(log, wantLog) {
		t.Errorf("log %q, want %q", log, wantLog)
	}

	broken := ir.NewPassManager(eraseAll("drop-yields", scf.OpYield))
	if _, err := broken.Log(buildSampleModule(t)); err == nil || !strings.Contains(err.Error(), "verifier failed after pass drop-yields") {
		t.Errorf("a pass that breaks the IR: Log returned %v", err)
	}
}

func TestMoveBeforeAfter(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c1 := arith.NewConstant(b, 1, ir.I64).DefiningOp()
	c2 := arith.NewConstant(b, 2, ir.I64).DefiningOp()
	c3 := arith.NewConstant(b, 3, ir.I64).DefiningOp()
	fnc.NewReturn(b)

	c3.MoveBefore(c1)
	order := f.Body().Ops()
	if order[0] != c3 || order[1] != c1 || order[2] != c2 {
		t.Error("MoveBefore produced wrong order")
	}
	c3.MoveAfter(c2)
	order = f.Body().Ops()
	if order[0] != c1 || order[1] != c2 || order[2] != c3 {
		t.Error("MoveAfter produced wrong order")
	}
	if !c1.IsBefore(c3) {
		t.Error("IsBefore(c1, c3) = false, want true")
	}
	if c3.IsBefore(c1) {
		t.Error("IsBefore(c3, c1) = true, want false")
	}
}

func TestModuleFindFunc(t *testing.T) {
	m := ir.NewModule()
	for _, name := range []string{"a", "b", "c"} {
		f := fnc.NewFunc(name, ir.FuncType(nil, nil))
		fnc.NewReturn(ir.AtEnd(f.Body()))
		m.Append(f.Op)
	}
	if m.FindFunc("b") == nil {
		t.Error("FindFunc(b) = nil")
	}
	if m.FindFunc("zzz") != nil {
		t.Error("FindFunc(zzz) != nil")
	}
	if n := len(slices.Collect(m.Funcs)); n != 3 {
		t.Errorf("Funcs() yields %d, want 3", n)
	}
}

// TestAttrDictionaryIsSorted: an op keeps its attributes sorted by key
// whatever order they were set in, in its inline room or beyond it, so
// AttrAt and the printer read one order without sorting.
func TestAttrDictionaryIsSorted(t *testing.T) {
	keys := func(op *ir.Op) string {
		var ks []string
		for i := 0; i < op.NumAttrs(); i++ {
			k, _ := op.AttrAt(i)
			ks = append(ks, k)
		}
		return strings.Join(ks, ",")
	}
	op := ir.NewOp("test.attrs", nil, nil)
	for _, k := range []string{"m", "z", "a", "q"} {
		op.SetAttr(k, ir.StrAttr(k))
	}
	op.SetAttr("m", ir.IntAttr(1)) // replaces, keeps its place
	want := []string{"a", "m", "q", "z"}
	if got := keys(op); got != strings.Join(want, ",") {
		t.Fatalf("keys in AttrAt order = %s, want %v", got, want)
	}
	for i, k := range want {
		if key, a := op.AttrAt(i); key != k || a != op.Attr(k) {
			t.Errorf("AttrAt(%d) = %s, %v; want %s, %v", i, key, a, k, op.Attr(k))
		}
	}
	if got := ir.Print(op); !strings.Contains(got, `{a = "a", m = 1 : i64, q = "q", z = "z"}`) {
		t.Errorf("printed dictionary not in key order: %s", got)
	}
	op.RemoveAttr("m")
	op.RemoveAttr("absent")
	if op.NumAttrs() != 3 || op.HasAttr("m") || op.Attr("m") != nil || !op.HasAttr("z") {
		t.Errorf("after RemoveAttr: keys %s", keys(op))
	}
	// A clone copies the dictionary, and the two then change apart.
	cl := ir.AtEnd(ir.NewModule().Block()).Clone(op, nil)
	cl.SetAttr("b", ir.UnitAttr{})
	if op.HasAttr("b") || keys(cl) != "a,b,q,z" {
		t.Errorf("clone shares its dictionary: original %s, clone %s", keys(op), keys(cl))
	}
}

// TestInlineStorageKeepsIdentity: the inline result and the inline first use
// are storage, not identity. A result added after the inline one was erased
// is a new value (readers holding the old pointer must not see it change),
// and use lists that grow past, shrink below and move out of the inline use
// keep their order.
func TestInlineStorageKeepsIdentity(t *testing.T) {
	op := ir.NewOp("test.results", nil, []ir.Type{ir.I64})
	r0 := op.Result(0)
	op.EraseResult(0)
	r1 := op.AddResult(ir.I1)
	if r1 == r0 || r0.Type() != ir.I64 || r1.Type() != ir.I1 || r1.DefiningOp() != op || op.NumResults() != 1 {
		t.Fatalf("AddResult after EraseResult reused the erased value: %p %p", r0, r1)
	}
	r2 := op.AddResult(ir.I64)
	if r2.ResultIndex() != 1 || op.Result(0) != r1 || op.Result(1) != r2 {
		t.Errorf("results after a second AddResult: %v", []*ir.Value{op.Result(0), op.Result(1)})
	}

	m := ir.NewModule()
	b := ir.AtEnd(m.Block())
	v := b.Create("test.source", nil, []ir.Type{ir.I64}).Result(0)
	w := b.Create("test.source", nil, []ir.Type{ir.I64}).Result(0)
	first := b.Create("test.sink", []*ir.Value{w}, nil)
	var users []*ir.Op
	for i := 0; i < 3; i++ {
		users = append(users, b.Create("test.sink", []*ir.Value{v}, nil))
	}
	users[0].Erase()
	v.ReplaceAllUsesWith(w)
	var uses []ir.Use
	for i := range w.NumUses() {
		uses = append(uses, w.Use(i))
	}
	if len(uses) != 3 || uses[0].Op != first || uses[1].Op != users[1] || uses[2].Op != users[2] || v.NumUses() != 0 {
		t.Fatalf("uses after RAUW = %v, want first, users[1], users[2]", uses)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	b.Create("test.sink", []*ir.Value{v}, nil)
	if !v.HasOneUse() || w.NumUses() != 3 {
		t.Errorf("a value emptied by RAUW takes a new use: %d, %d uses", v.NumUses(), w.NumUses())
	}
}
