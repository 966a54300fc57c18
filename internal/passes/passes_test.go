package passes_test

import (
	"testing"

	"configwall/internal/analysis"
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/memref"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
	"configwall/internal/passes"
)

// buildFigure9Input builds the paper's Figure 9 starting point:
//
//	scf.for %i = 0..10 {
//	  %s = accfg.setup("A" = %ptrA, "i" = %i)   // no chaining yet
//	  %t = accfg.launch %s
//	  accfg.await %t
//	}
func buildFigure9Input(t testing.TB) (*ir.Module, fnc.Func) {
	t.Helper()
	m := ir.NewModule()
	f := fnc.NewFunc("kernel", ir.FuncType([]ir.Type{ir.MemRef(ir.I8, 64, 64)}, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())

	ptrA := memref.NewExtractPointer(b, f.Body().Arg(0))
	lb := arith.NewConstant(b, 0, ir.Index)
	ub := arith.NewConstant(b, 10, ir.Index)
	step := arith.NewConstant(b, 1, ir.Index)
	loop := scf.NewFor(b, lb, ub, step)
	lbld := ir.AtEnd(loop.Body())
	iv64 := arith.NewIndexCast(lbld, loop.InductionVar(), ir.I64)
	s := accfg.NewSetup(lbld, "gemm", nil, []accfg.Field{
		{Name: "A", Value: ptrA},
		{Name: "i", Value: iv64},
	})
	l := accfg.NewLaunch(lbld, s.State())
	accfg.NewAwait(lbld, l.Token())
	scf.NewYield(lbld)
	fnc.NewReturn(b)

	if err := ir.Verify(m); err != nil {
		t.Fatalf("figure 9 input invalid: %v", err)
	}
	return m, f
}

func runPipeline(t testing.TB, m *ir.Module, ps ...ir.Pass) {
	t.Helper()
	pm := ir.NewPassManager(ps...)
	// Every test pipeline runs under the static config-state checker: a
	// pass whose output provably diverges from its input fails here.
	pm.CheckEach = analysis.PassCheck
	if err := pm.Run(m); err != nil {
		t.Fatalf("pipeline failed: %v\n%s", err, ir.PrintModule(m))
	}
}

func allSetups(m *ir.Module) []accfg.Setup {
	var out []accfg.Setup
	m.Walk(func(op *ir.Op) {
		if s, ok := accfg.AsSetup(op); ok {
			out = append(out, s)
		}
	})
	return out
}

func TestTraceStatesThreadsLoop(t *testing.T) {
	m, _ := buildFigure9Input(t)
	runPipeline(t, m, passes.TraceStates())

	// Expect: an empty anchor setup before the loop, the loop carrying a
	// state iter arg, and the inner setup chained from the arg.
	setups := allSetups(m)
	if len(setups) != 2 {
		t.Fatalf("setups = %d, want 2 (anchor + inner)\n%s", len(setups), ir.PrintModule(m))
	}
	var inner accfg.Setup
	found := false
	for _, s := range setups {
		if s.NumFields() == 2 {
			inner = s
			found = true
		}
	}
	if !found {
		t.Fatalf("inner setup not found")
	}
	if !inner.HasInState() {
		t.Fatal("inner setup not chained")
	}
	if !inner.InState().IsBlockArg() {
		t.Fatal("inner setup should chain from the loop iter arg")
	}
	// The loop must yield the inner state.
	loop := inner.Op.Block().ParentOp()
	forOp, ok := scf.AsFor(loop)
	if !ok {
		t.Fatal("inner setup not directly inside scf.for")
	}
	y := forOp.Yield()
	if y.NumOperands() != 1 || y.Operand(0) != inner.State() {
		t.Errorf("loop does not yield the inner state")
	}
}

func TestTraceStatesStraightLine(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c := arith.NewConstant(b, 7, ir.I64)
	s1 := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "x", Value: c}})
	l1 := accfg.NewLaunch(b, s1.State())
	accfg.NewAwait(b, l1.Token())
	s2 := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "x", Value: c}})
	l2 := accfg.NewLaunch(b, s2.State())
	accfg.NewAwait(b, l2.Token())
	fnc.NewReturn(b)

	runPipeline(t, m, passes.TraceStates())
	if !s2.HasInState() || s2.InState() != s1.State() {
		t.Fatalf("s2 not chained to s1:\n%s", ir.PrintModule(m))
	}
}

func TestTraceStatesStopsAtClobber(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c := arith.NewConstant(b, 7, ir.I64)
	s1 := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "x", Value: c}})
	l1 := accfg.NewLaunch(b, s1.State())
	accfg.NewAwait(b, l1.Token())
	// An unknown call clobbers accelerator state by default.
	fnc.NewCall(b, "mystery", nil, nil)
	s2 := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "x", Value: c}})
	l2 := accfg.NewLaunch(b, s2.State())
	accfg.NewAwait(b, l2.Token())
	fnc.NewReturn(b)

	runPipeline(t, m, passes.TraceStates())
	if s2.HasInState() {
		t.Fatalf("s2 chained across a clobbering call:\n%s", ir.PrintModule(m))
	}
}

func TestEffectsNoneAnnotationAllowsChaining(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c := arith.NewConstant(b, 7, ir.I64)
	s1 := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "x", Value: c}})
	l1 := accfg.NewLaunch(b, s1.State())
	accfg.NewAwait(b, l1.Token())
	call := fnc.NewCall(b, "printf", nil, nil)
	call.SetAttr(accfg.AttrEffects, ir.EffectsAttr{Kind: ir.EffectsNone})
	s2 := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "x", Value: c}})
	l2 := accfg.NewLaunch(b, s2.State())
	accfg.NewAwait(b, l2.Token())
	fnc.NewReturn(b)

	runPipeline(t, m, passes.TraceStates(), passes.Dedup())
	if !s2.HasInState() {
		t.Fatalf("s2 not chained across effects<none> call:\n%s", ir.PrintModule(m))
	}
	if s2.NumFields() != 0 {
		t.Errorf("redundant field not deduplicated across effects<none> call")
	}
}

func TestDedupStraightLine(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c7 := arith.NewConstant(b, 7, ir.I64)
	c9 := arith.NewConstant(b, 9, ir.I64)
	s1 := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "x", Value: c7}, {Name: "y", Value: c9}})
	l1 := accfg.NewLaunch(b, s1.State())
	accfg.NewAwait(b, l1.Token())
	// Second setup re-writes x with the same value, y with a new one.
	s2 := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "x", Value: c7}, {Name: "y", Value: c7}})
	l2 := accfg.NewLaunch(b, s2.State())
	accfg.NewAwait(b, l2.Token())
	fnc.NewReturn(b)

	runPipeline(t, m, passes.TraceStates(), passes.Dedup())
	if got := s2.FieldNames(); len(got) != 1 || got[0] != "y" {
		t.Fatalf("s2 fields = %v, want [y]\n%s", got, ir.PrintModule(m))
	}
	// s1 must keep both fields (nothing known before it).
	if got := s1.FieldNames(); len(got) != 2 {
		t.Errorf("s1 fields = %v, want 2 fields", got)
	}
}

func TestFigure9FullDedupPipeline(t *testing.T) {
	m, _ := buildFigure9Input(t)
	runPipeline(t, m,
		passes.TraceStates(),
		passes.HoistLoopInvariantFields(),
		passes.Dedup(),
		passes.MergeSetups(),
		passes.RemoveEmptySetups(),
	)

	// Figure 9 middle block: pre-loop setup holds A (and i's first value is
	// not hoistable since i changes), inner setup holds only i.
	setups := allSetups(m)
	if len(setups) != 2 {
		t.Fatalf("setups = %d, want 2:\n%s", len(setups), ir.PrintModule(m))
	}
	var pre, inner accfg.Setup
	for _, s := range setups {
		if s.Op.ParentOp().Name() == "fnc.func" {
			pre = s
		} else {
			inner = s
		}
	}
	if pre.Op == nil || inner.Op == nil {
		t.Fatalf("expected one pre-loop and one in-loop setup:\n%s", ir.PrintModule(m))
	}
	if got := pre.FieldNames(); len(got) != 1 || got[0] != "A" {
		t.Errorf("pre-loop setup fields = %v, want [A]", got)
	}
	if got := inner.FieldNames(); len(got) != 1 || got[0] != "i" {
		t.Errorf("in-loop setup fields = %v, want [i]", got)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapPipelinesLoop(t *testing.T) {
	m, _ := buildFigure9Input(t)
	concurrent := func(string) bool { return true }
	runPipeline(t, m,
		passes.TraceStates(),
		passes.HoistLoopInvariantFields(),
		passes.Dedup(),
		passes.MergeSetups(),
		passes.RemoveEmptySetups(),
		passes.Overlap(concurrent),
		passes.Canonicalize(),
	)

	// Figure 9 third block: inside the loop the launch must now come first
	// and read the loop-carried state; the setup configures i+1.
	var loop scf.For
	m.Walk(func(op *ir.Op) {
		if f, ok := scf.AsFor(op); ok {
			loop = f
		}
	})
	if loop.Op == nil {
		t.Fatal("loop disappeared")
	}
	var firstAccfg *ir.Op
	for _, op := range loop.Body().Ops() {
		if op.Dialect() == "accfg" {
			firstAccfg = op
			break
		}
	}
	if firstAccfg == nil || firstAccfg.Name() != accfg.OpLaunch {
		t.Fatalf("first accfg op in body = %v, want launch:\n%s", firstAccfg, ir.PrintModule(m))
	}
	l, _ := accfg.AsLaunch(firstAccfg)
	if !l.State().IsBlockArg() {
		t.Errorf("pipelined launch must read the loop-carried state")
	}
	// A prologue setup must exist before the loop carrying both A and i.
	var prologue []accfg.Setup
	for _, s := range allSetups(m) {
		if s.Op.ParentOp().Name() == "fnc.func" {
			prologue = append(prologue, s)
		}
	}
	if len(prologue) == 0 {
		t.Fatalf("no prologue setup:\n%s", ir.PrintModule(m))
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapSkipsSequentialAccelerators(t *testing.T) {
	m, _ := buildFigure9Input(t)
	before := ir.PrintModule(m)
	runPipeline(t, m, passes.TraceStates())
	snapshot := ir.PrintModule(m)
	runPipeline(t, m, passes.Overlap(func(string) bool { return false }))
	if got := ir.PrintModule(m); got != snapshot {
		t.Errorf("overlap changed IR for a sequential accelerator:\nbefore trace:\n%s\nafter:\n%s", before, got)
	}
}

func TestOverlapStraightLine(t *testing.T) {
	// launch+await then a dependent setup: the setup should move above the
	// await so it runs while the accelerator is busy.
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType([]ir.Type{ir.I64}, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	x := f.Body().Arg(0)
	s1 := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "p", Value: x}})
	l1 := accfg.NewLaunch(b, s1.State())
	aw := accfg.NewAwait(b, l1.Token())
	c2 := arith.NewConstant(b, 2, ir.I64)
	doubled := arith.NewMul(b, x, c2)
	s2 := accfg.NewSetup(b, "acc", s1.State(), []accfg.Field{{Name: "p", Value: doubled}})
	l2 := accfg.NewLaunch(b, s2.State())
	accfg.NewAwait(b, l2.Token())
	fnc.NewReturn(b)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}

	runPipeline(t, m, passes.Overlap(func(string) bool { return true }))

	// s2 (and its multiply) must now appear before the first await.
	order := map[*ir.Op]int{}
	for i, op := range f.Body().Ops() {
		order[op] = i
	}
	if order[s2.Op] > order[aw.Op] {
		t.Fatalf("setup not moved above await:\n%s", ir.PrintModule(m))
	}
	if order[doubled.DefiningOp()] > order[aw.Op] {
		t.Errorf("setup's input slice not moved above await")
	}
	if order[s2.Op] < order[l1.Op] {
		t.Errorf("setup moved above the launch it must follow")
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestSinkSetupsIntoBranches(t *testing.T) {
	// if %c { yield setup(x=1) } else { yield setup(x=2) } ; setup(x=1, y=3)
	// After sinking + dedup: the trailing setup is cloned into both
	// branches; the then-branch clone drops the redundant x=1.
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType([]ir.Type{ir.I1}, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	cond := f.Body().Arg(0)
	c1 := arith.NewConstant(b, 1, ir.I64)
	c2 := arith.NewConstant(b, 2, ir.I64)
	c3 := arith.NewConstant(b, 3, ir.I64)

	ifOp := scf.NewIf(b, cond, ir.StateType{Accelerator: "acc"})
	tb := ir.AtEnd(ifOp.Then())
	st := accfg.NewSetup(tb, "acc", nil, []accfg.Field{{Name: "x", Value: c1}})
	scf.NewYield(tb, st.State())
	eb := ir.AtEnd(ifOp.Else())
	se := accfg.NewSetup(eb, "acc", nil, []accfg.Field{{Name: "x", Value: c2}})
	scf.NewYield(eb, se.State())

	after := accfg.NewSetup(b, "acc", ifOp.Op.Result(0), []accfg.Field{
		{Name: "x", Value: c1}, {Name: "y", Value: c3},
	})
	l := accfg.NewLaunch(b, after.State())
	accfg.NewAwait(b, l.Token())
	fnc.NewReturn(b)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}

	runPipeline(t, m,
		passes.SinkSetupsIntoBranches(),
		passes.Dedup(),
		passes.MergeSetups(),
		passes.RemoveEmptySetups(),
	)

	// The then-branch must have a merged setup without a redundant x write.
	thenOps := ifOp.Then().Ops()
	var thenSetups []accfg.Setup
	for _, op := range thenOps {
		if s, ok := accfg.AsSetup(op); ok {
			thenSetups = append(thenSetups, s)
		}
	}
	if len(thenSetups) != 1 {
		t.Fatalf("then-branch setups = %d, want 1 after merging:\n%s", len(thenSetups), ir.PrintModule(m))
	}
	fieldsThen := map[string]bool{}
	for _, n := range thenSetups[0].FieldNames() {
		fieldsThen[n] = true
	}
	if !fieldsThen["x"] || !fieldsThen["y"] {
		t.Errorf("then-branch merged setup fields = %v, want x and y", thenSetups[0].FieldNames())
	}
	// x is written once with value 1 in the then branch (the duplicate
	// write deduplicated, then merged into a single setup).
	if v, _ := arith.ConstantValue(thenSetups[0].FieldValue("x")); v != 1 {
		t.Errorf("then-branch x = %d, want 1", v)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestCSEEnablesDedup(t *testing.T) {
	// Two setups compute the same packed word independently; without CSE
	// the SSA values differ and dedup must keep the write, with CSE it can
	// remove it — the paper's §5.4 argument.
	build := func() (*ir.Module, accfg.Setup) {
		m := ir.NewModule()
		f := fnc.NewFunc("f", ir.FuncType([]ir.Type{ir.I64}, nil))
		m.Append(f.Op)
		b := ir.AtEnd(f.Body())
		x := f.Body().Arg(0)
		c16 := arith.NewConstant(b, 16, ir.I64)
		p1 := arith.NewShl(b, x, c16)
		s1 := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "packed", Value: p1}})
		l1 := accfg.NewLaunch(b, s1.State())
		accfg.NewAwait(b, l1.Token())
		c16b := arith.NewConstant(b, 16, ir.I64)
		p2 := arith.NewShl(b, x, c16b)
		s2 := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "packed", Value: p2}})
		l2 := accfg.NewLaunch(b, s2.State())
		accfg.NewAwait(b, l2.Token())
		fnc.NewReturn(b)
		return m, s2
	}

	mNoCSE, s2NoCSE := build()
	runPipeline(t, mNoCSE, passes.TraceStates(), passes.Dedup())
	if s2NoCSE.NumFields() != 1 {
		t.Errorf("without CSE, dedup removed a write it could not prove redundant")
	}

	mCSE, s2CSE := build()
	runPipeline(t, mCSE, passes.CSE(), passes.TraceStates(), passes.Dedup())
	if s2CSE.NumFields() != 0 {
		t.Errorf("with CSE, the redundant write should be removed:\n%s", ir.PrintModule(mCSE))
	}
}

// TestCSEScopes pins the scoping of CSE's one table: a region reuses what
// its enclosing scopes defined before it, and what it defines itself is
// gone again when the region ends — for its sibling region and for the
// code after the op alike (either reuse would break dominance, which the
// verifier behind runPipeline would report).
func TestCSEScopes(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType([]ir.Type{ir.I1}, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	use := func(b *ir.Builder, vs ...*ir.Value) { b.Create("test.use", vs, nil) }

	outer7 := arith.NewConstant(b, 7, ir.I64)
	ifOp := scf.NewIf(b, f.Body().Arg(0))
	tb := ir.AtEnd(ifOp.Then())
	use(tb, arith.NewConstant(tb, 7, ir.I64), arith.NewConstant(tb, 9, ir.I64))
	scf.NewYield(tb)
	eb := ir.AtEnd(ifOp.Else())
	use(eb, arith.NewConstant(eb, 9, ir.I64), arith.NewConstant(eb, 9, ir.I64))
	scf.NewYield(eb)
	use(b, arith.NewConstant(b, 9, ir.I64), arith.NewConstant(b, 9, ir.I64), outer7)
	fnc.NewReturn(b)

	runPipeline(t, m, passes.CSE())

	constants := func(blk *ir.Block) (sevens, nines int) {
		for op := blk.First(); op != nil; op = op.Next() {
			if op.Name() != arith.OpConstant {
				continue
			}
			switch v, _ := op.IntAttrValue("value"); v {
			case 7:
				sevens++
			case 9:
				nines++
			}
		}
		return
	}
	for _, tc := range []struct {
		where         string
		blk           *ir.Block
		sevens, nines int
	}{
		{"function body", f.Body(), 1, 1},  // the two 9s after the if merge into one, not into a branch's
		{"then region", ifOp.Then(), 0, 1}, // its 7 is the function's
		{"else region", ifOp.Else(), 0, 1}, // its 9s merge with each other, not with then's
	} {
		if s7, s9 := constants(tc.blk); s7 != tc.sevens || s9 != tc.nines {
			t.Errorf("%s keeps %d sevens and %d nines, want %d and %d:\n%s", tc.where, s7, s9, tc.sevens, tc.nines, ir.PrintModule(m))
		}
	}
}

func TestLICMHoistsInvariantArith(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType([]ir.Type{ir.I64}, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	x := f.Body().Arg(0)
	lb := arith.NewConstant(b, 0, ir.Index)
	ub := arith.NewConstant(b, 8, ir.Index)
	step := arith.NewConstant(b, 1, ir.Index)
	loop := scf.NewFor(b, lb, ub, step)
	lbld := ir.AtEnd(loop.Body())
	c2 := arith.NewConstant(lbld, 2, ir.I64)
	inv := arith.NewMul(lbld, x, c2) // invariant
	iv := arith.NewIndexCast(lbld, loop.InductionVar(), ir.I64)
	variant := arith.NewAdd(lbld, inv, iv) // depends on iv
	s := accfg.NewSetup(lbld, "acc", nil, []accfg.Field{{Name: "v", Value: variant}})
	l := accfg.NewLaunch(lbld, s.State())
	accfg.NewAwait(lbld, l.Token())
	scf.NewYield(lbld)
	fnc.NewReturn(b)

	runPipeline(t, m, passes.LICM())
	if inv.DefiningOp().Block() != f.Body() {
		t.Errorf("invariant multiply not hoisted:\n%s", ir.PrintModule(m))
	}
	if variant.DefiningOp().Block() == f.Body() {
		t.Errorf("iv-dependent add wrongly hoisted")
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestKnownFieldsAnalysis(t *testing.T) {
	m, _ := buildFigure9Input(t)
	runPipeline(t, m, passes.TraceStates(), passes.HoistLoopInvariantFields())

	var fn *ir.Op
	for _, f := range m.Funcs() {
		fn = f
	}
	fs := analysis.AnalyzeFields(fn)

	// Inside the loop, the iter-arg state must know field A (hoisted, same
	// on all paths) but not i (changes every iteration).
	var inner accfg.Setup
	m.Walk(func(op *ir.Op) {
		if s, ok := accfg.AsSetup(op); ok && s.Op.ParentOp().Name() == "scf.for" {
			inner = s
		}
	})
	if inner.Op == nil {
		t.Fatalf("no in-loop setup:\n%s", ir.PrintModule(m))
	}
	in := inner.InState()
	if got := fs.Known(in, "A"); got == nil {
		t.Errorf("field A should be known at the loop iter arg")
	}
	if got := fs.Known(in, "i"); got != nil {
		t.Errorf("field i should be unknown at the loop iter arg (loop-variant)")
	}
}

func TestMergeSetupsFoldsChains(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c1 := arith.NewConstant(b, 1, ir.I64)
	c2 := arith.NewConstant(b, 2, ir.I64)
	s1 := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "x", Value: c1}})
	s2 := accfg.NewSetup(b, "acc", s1.State(), []accfg.Field{{Name: "y", Value: c2}})
	s3 := accfg.NewSetup(b, "acc", s2.State(), []accfg.Field{{Name: "x", Value: c2}})
	l := accfg.NewLaunch(b, s3.State())
	accfg.NewAwait(b, l.Token())
	fnc.NewReturn(b)

	runPipeline(t, m, passes.MergeSetups())
	setups := allSetups(m)
	if len(setups) != 1 {
		t.Fatalf("setups = %d, want 1 after merging:\n%s", len(setups), ir.PrintModule(m))
	}
	s := setups[0]
	// Later x=2 write wins; y=2 carried.
	if v, _ := arith.ConstantValue(s.FieldValue("x")); v != 2 {
		t.Errorf("merged x = %d, want 2", v)
	}
	if v, _ := arith.ConstantValue(s.FieldValue("y")); v != 2 {
		t.Errorf("merged y = %d, want 2", v)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEmptySetups(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c1 := arith.NewConstant(b, 1, ir.I64)
	s1 := accfg.NewSetup(b, "acc", nil, []accfg.Field{{Name: "x", Value: c1}})
	s2 := accfg.NewSetup(b, "acc", s1.State(), nil) // empty
	l := accfg.NewLaunch(b, s2.State())
	accfg.NewAwait(b, l.Token())
	fnc.NewReturn(b)

	runPipeline(t, m, passes.RemoveEmptySetups())
	if got := len(allSetups(m)); got != 1 {
		t.Fatalf("setups = %d, want 1", got)
	}
	if l.State() != s1.State() {
		t.Error("launch not rewired to the surviving state")
	}
}
