package scf_test

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

func setup(t testing.TB) (*ir.Module, *ir.Builder) {
	t.Helper()
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	return m, ir.AtEnd(f.Body())
}

func TestForAccessors(t *testing.T) {
	m, b := setup(t)
	lb := arith.NewConstant(b, 0, ir.Index)
	ub := arith.NewConstant(b, 8, ir.Index)
	step := arith.NewConstant(b, 2, ir.Index)
	init := arith.NewConstant(b, 5, ir.I64)
	loop := scf.NewFor(b, lb, ub, step, init)
	lbld := ir.AtEnd(loop.Body())
	scf.NewYield(lbld, loop.IterArg(0))
	fnc.NewReturn(b)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}

	if loop.LowerBound() != lb || loop.UpperBound() != ub || loop.Step() != step {
		t.Error("bound accessors wrong")
	}
	if loop.NumIterArgs() != 1 || loop.InitArg(0) != init {
		t.Error("iter arg accessors wrong")
	}
	if loop.InductionVar() != loop.Body().Arg(0) {
		t.Error("induction var accessor wrong")
	}
	if loop.Yield() == nil || loop.Yield().Name() != scf.OpYield {
		t.Error("yield accessor wrong")
	}
	if _, ok := scf.AsFor(loop.Op); !ok {
		t.Error("AsFor rejects a for")
	}
	if _, ok := scf.AsFor(init.DefiningOp()); ok {
		t.Error("AsFor accepts a constant")
	}
	if loop.Result(0) != loop.Op.Result(0) || loop.Yielded(0) != loop.IterArg(0) || loop.Yielded(1) != nil {
		t.Error("result / yielded accessors wrong")
	}

	// Carried: which loop carries a value, at which index.
	for _, tc := range []struct {
		name string
		v    *ir.Value
		i    int
		ok   bool
	}{
		{"iter arg", loop.IterArg(0), 0, true},
		{"result", loop.Result(0), 0, true},
		{"induction variable", loop.InductionVar(), 0, false},
		{"non-loop value", init, 0, false},
	} {
		f, i, ok := scf.Carried(tc.v)
		if ok != tc.ok || ok && (f != loop || i != tc.i) {
			t.Errorf("Carried(%s) = (%v, %d, %v), want index %d, ok %v", tc.name, f.Op, i, ok, tc.i, tc.ok)
		}
	}

	// ConstantTripCount over the same loop with its bounds swapped out.
	c := func(v int64) *ir.Value { return arith.NewConstant(ir.Before(loop.Op), v, ir.Index) }
	nonConst := arith.NewBinary(ir.Before(loop.Op), arith.OpAddI, lb, ub)
	for _, tc := range []struct {
		name         string
		lb, ub, step *ir.Value
		n            int64
		ok           bool
	}{
		{"constant", lb, ub, step, 4, true},
		{"rounds up", lb, c(7), step, 4, true},
		{"zero-trip", ub, lb, step, 0, true},
		{"empty range", lb, lb, step, 0, true},
		{"negative step", lb, ub, c(-2), 0, false},
		{"zero step", lb, ub, c(0), 0, false},
		{"non-constant bound", lb, nonConst, step, 0, false},
		{"widest range", c(math.MinInt64), c(math.MaxInt64), c(1), math.MaxInt64, true},
	} {
		loop.Op.SetOperand(0, tc.lb)
		loop.Op.SetOperand(1, tc.ub)
		loop.Op.SetOperand(2, tc.step)
		if n, ok := loop.ConstantTripCount(); n != tc.n || ok != tc.ok {
			t.Errorf("%s: ConstantTripCount = (%d, %v), want (%d, %v)", tc.name, n, ok, tc.n, tc.ok)
		}
	}
}

// TestConstantTripCountOnTestdata: on every loop of the pass test inputs,
// ConstantTripCount returns what the three private copies it replaced
// returned: passes.tripCount's (ub-lb+step-1)/step, analysis.minTripCount
// (the same, as a lower bound) and the path interpreter's count of
// `for iv := lb; iv < ub; iv += step`.
func TestConstantTripCountOnTestdata(t *testing.T) {
	want := map[string][]int64{
		"branches.ir":       nil,
		"figure9.ir":        {4},
		"hoist.ir":          {8},
		"overlap.ir":        {6},
		"overlap_nested.ir": {6},
		"sink.ir":           {4},
	}
	for file, trips := range want {
		src, err := os.ReadFile(filepath.Join("../../passes/testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		var got []int64
		m.Walk(func(op *ir.Op) {
			loop, ok := scf.AsFor(op)
			if !ok {
				return
			}
			n, ok := loop.ConstantTripCount()
			if !ok {
				t.Errorf("%s: loop bounds not constant", file)
			}
			lb, _ := arith.ConstantValue(loop.LowerBound())
			ub, _ := arith.ConstantValue(loop.UpperBound())
			step, _ := arith.ConstantValue(loop.Step())
			iterated := int64(0)
			for iv := lb; iv < ub; iv += step {
				iterated++
			}
			if formula := (ub - lb + step - 1) / step; n != formula || n != iterated {
				t.Errorf("%s: ConstantTripCount = %d, the formula %d, iterating %d", file, n, formula, iterated)
			}
			got = append(got, n)
		})
		if !slices.Equal(got, trips) {
			t.Errorf("%s: trip counts %v, want %v", file, got, trips)
		}
	}
}

func TestAddIterArg(t *testing.T) {
	m, b := setup(t)
	lb := arith.NewConstant(b, 0, ir.Index)
	ub := arith.NewConstant(b, 8, ir.Index)
	step := arith.NewConstant(b, 1, ir.Index)
	loop := scf.NewFor(b, lb, ub, step)
	lbld := ir.AtEnd(loop.Body())
	scf.NewYield(lbld)
	fnc.NewReturn(b)

	init := arith.NewConstant(ir.Before(loop.Op), 3, ir.I64)
	arg, res := loop.AddIterArg(init, init)
	if !arg.IsBlockArg() || arg.OwnerBlock() != loop.Body() {
		t.Error("new iter arg not a body block argument")
	}
	if res.DefiningOp() != loop.Op {
		t.Error("new result not attached to the loop")
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("loop invalid after AddIterArg: %v", err)
	}
}

func TestIfAccessors(t *testing.T) {
	m, b := setup(t)
	cond := arith.NewConstant(b, 1, ir.I1)
	ifOp := scf.NewIf(b, cond, ir.I64)
	tb := ir.AtEnd(ifOp.Then())
	scf.NewYield(tb, arith.NewConstant(tb, 1, ir.I64))
	eb := ir.AtEnd(ifOp.Else())
	scf.NewYield(eb, arith.NewConstant(eb, 2, ir.I64))
	fnc.NewReturn(b)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	if ifOp.Condition() != cond {
		t.Error("condition accessor wrong")
	}
	if ifOp.Then() == ifOp.Else() {
		t.Error("then/else must differ")
	}
}

func TestForVerifierErrors(t *testing.T) {
	t.Run("iter count mismatch", func(t *testing.T) {
		m, b := setup(t)
		lb := arith.NewConstant(b, 0, ir.Index)
		init := arith.NewConstant(b, 0, ir.I64)
		loop := scf.NewFor(b, lb, lb, lb, init)
		lbld := ir.AtEnd(loop.Body())
		scf.NewYield(lbld) // yields nothing, loop carries one value
		fnc.NewReturn(b)
		if err := ir.Verify(m); err == nil {
			t.Error("verifier accepted yield/iter-arg count mismatch")
		}
	})
	t.Run("iter type mismatch", func(t *testing.T) {
		m, b := setup(t)
		lb := arith.NewConstant(b, 0, ir.Index)
		init := arith.NewConstant(b, 0, ir.I64)
		loop := scf.NewFor(b, lb, lb, lb, init)
		// Corrupt the body arg type by adding a fresh one of wrong type.
		body := loop.Body()
		body.EraseArg(1)
		body.AddArg(ir.I32)
		lbld := ir.AtEnd(body)
		scf.NewYield(lbld, loop.InitArg(0))
		fnc.NewReturn(b)
		if err := ir.Verify(m); err == nil {
			t.Error("verifier accepted iter arg type mismatch")
		}
	})
	t.Run("if condition type", func(t *testing.T) {
		m, b := setup(t)
		notBool := arith.NewConstant(b, 1, ir.I64)
		op := ir.NewOp(scf.OpIf, []*ir.Value{notBool}, nil)
		op.AddRegion()
		op.AddRegion()
		b.Insert(op)
		tb := ir.AtEnd(op.Region(0).Block())
		scf.NewYield(tb)
		eb := ir.AtEnd(op.Region(1).Block())
		scf.NewYield(eb)
		fnc.NewReturn(b)
		if err := ir.Verify(m); err == nil {
			t.Error("verifier accepted non-i1 if condition")
		}
	})
}
