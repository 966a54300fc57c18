package arith_test

import (
	"testing"
	"testing/quick"

	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/fnc"
	"configwall/internal/ir"
)

func newFunc(t testing.TB) (*ir.Module, *ir.Builder) {
	t.Helper()
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType([]ir.Type{ir.I64, ir.I64}, nil))
	m.Append(f.Op)
	return m, ir.AtEnd(f.Body())
}

func finish(t testing.TB, m *ir.Module, b *ir.Builder) {
	t.Helper()
	fnc.NewReturn(b)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("invalid module: %v", err)
	}
}

func TestEvalMatchesGoSemantics(t *testing.T) {
	cases := []struct {
		op   string
		a, b int64
		want int64
	}{
		{arith.OpAddI, 1 << 62, 1 << 62, -(1 << 63)}, // wraps
		{arith.OpSubI, 0, 1, -1},
		{arith.OpMulI, -3, 7, -21},
		{arith.OpDivUI, -1, 2, int64(uint64(0xffffffffffffffff) / 2)},
		{arith.OpShLI, 1, 63, -(1 << 63)},
		{arith.OpShRUI, -1, 63, 1},
	}
	for _, tc := range cases {
		got, err := arith.Eval(tc.op, tc.a, tc.b, ir.I64)
		if err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		if got != tc.want {
			t.Errorf("Eval(%s, %d, %d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestEvalDivByZero(t *testing.T) {
	if _, err := arith.Eval(arith.OpDivUI, 1, 0, ir.I64); err == nil {
		t.Error("division by zero must error")
	}
	if _, err := arith.Eval(arith.OpRemUI, 1, 0, ir.I64); err == nil {
		t.Error("remainder by zero must error")
	}
}

func TestEvalTruncatesNarrowTypes(t *testing.T) {
	got, err := arith.Eval(arith.OpAddI, 0x7fff, 1, ir.I16)
	if err != nil {
		t.Fatal(err)
	}
	if got != -0x8000 {
		t.Errorf("i16 wrap = %d, want -32768", got)
	}
}

func TestEvalCmpAllPredicates(t *testing.T) {
	preds := map[string][3]bool{
		// results for (1,2), (2,2), (2,1)
		arith.PredEQ:  {false, true, false},
		arith.PredNE:  {true, false, true},
		arith.PredSLT: {true, false, false},
		arith.PredSLE: {true, true, false},
		arith.PredSGT: {false, false, true},
		arith.PredSGE: {false, true, true},
		arith.PredULT: {true, false, false},
		arith.PredULE: {true, true, false},
	}
	args := [][2]int64{{1, 2}, {2, 2}, {2, 1}}
	for pred, wants := range preds {
		for i, ab := range args {
			got, err := arith.EvalCmp(pred, ab[0], ab[1])
			if err != nil {
				t.Fatal(err)
			}
			if got != wants[i] {
				t.Errorf("EvalCmp(%s, %d, %d) = %v, want %v", pred, ab[0], ab[1], got, wants[i])
			}
		}
	}
	if _, err := arith.EvalCmp("bogus", 1, 2); err == nil {
		t.Error("unknown predicate must error")
	}
}

func TestIdentityFolds(t *testing.T) {
	m, b := newFunc(t)
	fun := m.FindFunc("f")
	x := fun.Region(0).Block().Arg(0)
	zero := arith.NewConstant(b, 0, ir.I64)
	one := arith.NewConstant(b, 1, ir.I64)

	addZ := arith.NewAdd(b, x, zero) // x + 0 -> x
	mulO := arith.NewMul(b, x, one)  // x * 1 -> x
	mulZ := arith.NewMul(b, x, zero) // x * 0 -> 0
	sink := b.Create("test.sink", []*ir.Value{addZ, mulO, mulZ}, nil)
	finish(t, m, b)

	ir.ApplyPatternsGreedy(m.Op())
	if sink.Operand(0) != x {
		t.Error("x+0 not folded to x")
	}
	if sink.Operand(1) != x {
		t.Error("x*1 not folded to x")
	}
	if v, ok := arith.ConstantValue(sink.Operand(2)); !ok || v != 0 {
		t.Error("x*0 not folded to 0")
	}
}

func TestSelectFold(t *testing.T) {
	m, b := newFunc(t)
	fun := m.FindFunc("f")
	x := fun.Region(0).Block().Arg(0)
	y := fun.Region(0).Block().Arg(1)
	tru := arith.NewConstant(b, 1, ir.I1)
	sel := arith.NewSelect(b, tru, x, y)
	sink := b.Create("test.sink", []*ir.Value{sel}, nil)
	finish(t, m, b)

	ir.ApplyPatternsGreedy(m.Op())
	if sink.Operand(0) != x {
		t.Error("select(true, x, y) not folded to x")
	}
}

func TestIndexCastChainFold(t *testing.T) {
	m, b := newFunc(t)
	fun := m.FindFunc("f")
	x := fun.Region(0).Block().Arg(0) // i64
	asIdx := arith.NewIndexCast(b, x, ir.Index)
	back := arith.NewIndexCast(b, asIdx, ir.I64)
	sink := b.Create("test.sink", []*ir.Value{back}, nil)
	finish(t, m, b)

	ir.ApplyPatternsGreedy(m.Op())
	if sink.Operand(0) != x {
		t.Error("index_cast chain not folded back to the source")
	}
}

// TestFoldNeverChangesValue is the core folding soundness property: any
// folded binary expression evaluates to the same value as Eval.
func TestFoldNeverChangesValue(t *testing.T) {
	ops := []string{arith.OpAddI, arith.OpSubI, arith.OpMulI, arith.OpAndI,
		arith.OpOrI, arith.OpXOrI, arith.OpShLI, arith.OpShRUI}
	prop := func(a int64, shiftRaw uint8, opSel uint8) bool {
		op := ops[int(opSel)%len(ops)]
		bVal := int64(shiftRaw % 64) // keep shifts in range
		m := ir.NewModule()
		f := fnc.NewFunc("f", ir.FuncType(nil, []ir.Type{ir.I64}))
		m.Append(f.Op)
		b := ir.AtEnd(f.Body())
		ca := arith.NewConstant(b, a, ir.I64)
		cb := arith.NewConstant(b, bVal, ir.I64)
		r := arith.NewBinary(b, op, ca, cb)
		fnc.NewReturn(b, r)

		ir.ApplyPatternsGreedy(m.Op())
		ret := f.Body().Last()
		got, ok := arith.ConstantValue(ret.Operand(0))
		if !ok {
			return false
		}
		want, err := arith.Eval(op, a, bVal, ir.I64)
		return err == nil && got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestVerifierRejectsMalformed(t *testing.T) {
	m, b := newFunc(t)
	// addi with one operand.
	c := arith.NewConstant(b, 1, ir.I64)
	bad := ir.NewOp(arith.OpAddI, []*ir.Value{c}, []ir.Type{ir.I64})
	b.Insert(bad)
	fnc.NewReturn(b)
	if err := ir.Verify(m); err == nil {
		t.Error("verifier accepted single-operand addi")
	}
}

// TestNewConstantAllocatesNoAttribute: a constant's value attribute is
// interned, so building constants of values already seen costs exactly
// what building the bare ops does — no boxed attribute per constant.
func TestNewConstantAllocatesNoAttribute(t *testing.T) {
	const ops = 64
	build := func(constant func(b *ir.Builder, i int)) float64 {
		return testing.AllocsPerRun(20, func() {
			b := ir.AtEnd(ir.NewModule().Block())
			for i := range ops {
				constant(b, i)
			}
		})
	}
	bare := build(func(b *ir.Builder, _ int) { b.Create(arith.OpConstant, nil, []ir.Type{ir.I32}) })
	built := build(func(b *ir.Builder, i int) { arith.NewConstant(b, int64(i%8), ir.I32) })
	if built != bare {
		t.Errorf("%d constants: %v allocations, %v for the bare ops: want no more", ops, built, bare)
	}
}
