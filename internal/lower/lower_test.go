package lower_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"configwall/internal/accel"
	"configwall/internal/accel/gemmini"
	"configwall/internal/accel/opengemm"
	"configwall/internal/analysis"
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/csrops"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/rocc"
	"configwall/internal/dialects/scf"
	"configwall/internal/difftest"
	"configwall/internal/ir"
	"configwall/internal/lower"
	"configwall/internal/passes"
)

// buildSingleInvocation builds one setup/launch/await for the accelerator
// with the given fields.
func buildSingleInvocation(accel string, fields []accfg.Field) (*ir.Module, *ir.Builder, fnc.Func) {
	m := ir.NewModule()
	f := fnc.NewFunc("main", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	s := accfg.NewSetup(b, accel, nil, fields)
	l := accfg.NewLaunch(b, s.State())
	accfg.NewAwait(b, l.Token())
	fnc.NewReturn(b)
	return m, b, f
}

func constField(b *ir.Builder, name string, v int64) accfg.Field {
	return accfg.Field{Name: name, Value: arith.NewConstant(b, v, ir.I64)}
}

func TestGemminiLoweringEmitsSequence(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("main", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	var fields []accfg.Field
	for _, w := range gemmini.Port.Writes {
		for _, slot := range w.Slots {
			fields = append(fields, constField(b, slot.Field, 1))
		}
	}
	s := accfg.NewSetup(b, gemmini.Name, nil, fields)
	l := accfg.NewLaunch(b, s.State())
	accfg.NewAwait(b, l.Token())
	fnc.NewReturn(b)

	pm := ir.NewPassManager(lower.Accfg(gemmini.Port))
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	// Full setup: every non-launch instruction of the sequence + launch.
	wantWrites := len(gemmini.Port.Writes) + 1 // loop_ws via accfg.launch
	if got := ir.CountOpsNamed(m, rocc.OpWrite); got != wantWrites {
		t.Errorf("rocc.write count = %d, want %d\n%s", got, wantWrites, ir.PrintModule(m))
	}
	if got := ir.CountOpsNamed(m, rocc.OpFence); got != 1 {
		t.Errorf("rocc.fence count = %d, want 1", got)
	}
	// No accfg left.
	m.Walk(func(op *ir.Op) {
		if op.Dialect() == "accfg" {
			t.Errorf("unlowered accfg op %s", op.Name())
		}
	})
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestGemminiPartialSetupEmitsOnlyTouchedInstrs(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("main", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	s := accfg.NewSetup(b, gemmini.Name, nil, []accfg.Field{
		constField(b, "A", 0x1000),
		constField(b, "I", 2),
	})
	l := accfg.NewLaunch(b, s.State())
	accfg.NewAwait(b, l.Token())
	fnc.NewReturn(b)

	pm := ir.NewPassManager(lower.Accfg(gemmini.Port))
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	// A lives in config_addr_a, I in config_bounds: 2 writes + launch.
	if got := ir.CountOpsNamed(m, rocc.OpWrite); got != 3 {
		t.Errorf("rocc.write count = %d, want 3\n%s", got, ir.PrintModule(m))
	}
}

func TestGemminiPackMateRematerialization(t *testing.T) {
	// Setup 1 writes I and J and K; setup 2 (chained) only re-writes I.
	// The bounds instruction packs I, J, K together, so lowering setup 2
	// must re-emit J and K from the known-fields analysis — verify the
	// known SSA values are reused (same constants), not zeros.
	m := ir.NewModule()
	f := fnc.NewFunc("main", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	cJ := arith.NewConstant(b, 7, ir.I64)
	cK := arith.NewConstant(b, 9, ir.I64)
	s1 := accfg.NewSetup(b, gemmini.Name, nil, []accfg.Field{
		constField(b, "I", 1), {Name: "J", Value: cJ}, {Name: "K", Value: cK},
	})
	l1 := accfg.NewLaunch(b, s1.State())
	accfg.NewAwait(b, l1.Token())
	s2 := accfg.NewSetup(b, gemmini.Name, s1.State(), []accfg.Field{
		constField(b, "I", 2),
	})
	l2 := accfg.NewLaunch(b, s2.State())
	accfg.NewAwait(b, l2.Token())
	fnc.NewReturn(b)

	pm := ir.NewPassManager(lower.Accfg(gemmini.Port), passes.Canonicalize())
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	// After constant folding, the second bounds write's rs1 packs
	// I=2 | J=7<<16, rs2 packs K=9.
	var writes []*ir.Op
	m.Walk(func(op *ir.Op) {
		if op.Name() == rocc.OpWrite && rocc.Funct7(op) == gemmini.FnConfigBounds {
			writes = append(writes, op)
		}
	})
	if len(writes) != 2 {
		t.Fatalf("bounds writes = %d, want 2", len(writes))
	}
	rs1, ok1 := arith.ConstantValue(writes[1].Operand(0))
	rs2, ok2 := arith.ConstantValue(writes[1].Operand(1))
	if !ok1 || !ok2 {
		t.Fatalf("second bounds write not constant-folded:\n%s", ir.PrintModule(m))
	}
	if want := int64(2 | 7<<16); rs1 != want {
		t.Errorf("rs1 = %#x, want %#x (I=2, J=7 rematerialized)", rs1, want)
	}
	if want := int64(9); rs2 != want {
		t.Errorf("rs2 = %#x, want %#x (K=9 rematerialized)", rs2, want)
	}
}

func TestGemminiUnknownFieldError(t *testing.T) {
	m, b, _ := buildSingleInvocation(gemmini.Name, nil)
	var setup accfg.Setup
	m.Walk(func(op *ir.Op) {
		if s, ok := accfg.AsSetup(op); ok {
			setup = s
		}
	})
	setup.AddField("no_such_field", arith.NewConstant(b, 0, ir.I64))
	// Re-anchor the constant before the setup so dominance holds.
	setup.Op.Block().First() // keep linter quiet
	c := setup.FieldValue("no_such_field").DefiningOp()
	c.MoveBefore(setup.Op)

	pm := ir.NewPassManager(lower.Accfg(gemmini.Port))
	if err := pm.Run(m); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("expected unknown-field error, got %v", err)
	}
}

func TestOpenGeMMLoweringCanonicalOrder(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("main", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	// Fields deliberately in scrambled order.
	s := accfg.NewSetup(b, opengemm.Name, nil, []accfg.Field{
		constField(b, "flags", 0),
		constField(b, "ptr_b", 0x2000),
		constField(b, "m", 1),
		constField(b, "ptr_a", 0x1000),
	})
	l := accfg.NewLaunch(b, s.State())
	accfg.NewAwait(b, l.Token())
	fnc.NewReturn(b)

	pm := ir.NewPassManager(lower.Accfg(opengemm.Port))
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	var addrs []uint32
	m.Walk(func(op *ir.Op) {
		if op.Name() == csrops.OpWrite {
			addrs = append(addrs, csrops.Addr(op))
		}
	})
	// Canonical order: ptr_a, ptr_b, m, flags, then the launch CSR.
	want := []uint32{opengemm.CsrPtrA, opengemm.CsrPtrB, opengemm.CsrM, opengemm.CsrFlags, opengemm.CsrLaunch}
	if len(addrs) != len(want) {
		t.Fatalf("csr writes = %v, want %v", addrs, want)
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Errorf("write %d to CSR %#x, want %#x", i, addrs[i], want[i])
		}
	}
	if got := ir.CountOpsNamed(m, csrops.OpBarrier); got != 1 {
		t.Errorf("barriers = %d, want 1", got)
	}
}

func TestStripLeavesOtherAcceleratorsAlone(t *testing.T) {
	// A module configuring both gemmini and a foreign accelerator: the
	// gemmini lowering must not strip the foreign accfg ops.
	m := ir.NewModule()
	f := fnc.NewFunc("main", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	sG := accfg.NewSetup(b, gemmini.Name, nil, []accfg.Field{constField(b, "A", 1)})
	lG := accfg.NewLaunch(b, sG.State())
	accfg.NewAwait(b, lG.Token())
	sO := accfg.NewSetup(b, opengemm.Name, nil, []accfg.Field{constField(b, "ptr_a", 1)})
	lO := accfg.NewLaunch(b, sO.State())
	accfg.NewAwait(b, lO.Token())
	fnc.NewReturn(b)

	pm := ir.NewPassManager(lower.Accfg(gemmini.Port))
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	if got := ir.CountOpsNamed(m, accfg.OpSetup); got != 1 {
		t.Errorf("foreign setups remaining = %d, want 1", got)
	}
	// Then the opengemm lowering finishes the job.
	pm2 := ir.NewPassManager(lower.Accfg(opengemm.Port))
	if err := pm2.Run(m); err != nil {
		t.Fatal(err)
	}
	if got := ir.CountOpsNamed(m, accfg.OpSetup); got != 0 {
		t.Errorf("setups remaining = %d, want 0", got)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestStripThroughLoopIterArgs(t *testing.T) {
	// Run the full optimized flow on the Figure 9 shape and check that the
	// loop's state plumbing is removed cleanly.
	m := ir.NewModule()
	f := fnc.NewFunc("main", ir.FuncType([]ir.Type{ir.I64}, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	x := f.Body().Arg(0)
	lb := arith.NewConstant(b, 0, ir.Index)
	ub := arith.NewConstant(b, 4, ir.Index)
	step := arith.NewConstant(b, 1, ir.Index)
	loop := scf.NewFor(b, lb, ub, step)
	lbld := ir.AtEnd(loop.Body())
	iv := arith.NewIndexCast(lbld, loop.InductionVar(), ir.I64)
	sum := arith.NewAdd(lbld, x, iv)
	s := accfg.NewSetup(lbld, opengemm.Name, nil, []accfg.Field{{Name: "ptr_a", Value: sum}})
	l := accfg.NewLaunch(lbld, s.State())
	accfg.NewAwait(lbld, l.Token())
	scf.NewYield(lbld)
	fnc.NewReturn(b)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}

	pm := ir.NewPassManager(
		passes.TraceStates(),
		passes.Overlap(func(string) bool { return true }),
		lower.Accfg(opengemm.Port),
		passes.Canonicalize(),
	)
	if err := pm.Run(m); err != nil {
		t.Fatalf("%v\n%s", err, ir.PrintModule(m))
	}
	// The loop must survive with no state-typed plumbing.
	m.Walk(func(op *ir.Op) {
		for _, r := range op.Results() {
			switch r.Type().(type) {
			case ir.StateType, ir.TokenType:
				t.Errorf("accfg type survived lowering on %s", op.Name())
			}
		}
	})
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

// TestLoweredIRMatchesGolden holds lower.Accfg to the text the two
// hand-written lowerings it replaced emitted (testdata/*.lowered.ir was
// written by their cwopt): a partial Gemmini setup with a deduplicated and a
// never-written mate, a full 37-field Gemmini setup, and an OpenGeMM setup
// with its fields in scrambled order. The accelerator is the file's prefix.
func TestLoweredIRMatchesGolden(t *testing.T) {
	ports := map[string]*accel.Port{gemmini.Name: gemmini.Port, opengemm.Name: opengemm.Port}
	golden, err := filepath.Glob("testdata/*.lowered.ir")
	if err != nil || len(golden) != 3 {
		t.Fatalf("golden files = %v, %v; want 3", golden, err)
	}
	for _, want := range golden {
		in := strings.TrimSuffix(want, ".lowered.ir") + ".ir"
		accelName, _, _ := strings.Cut(filepath.Base(in), "-")
		src, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if err := ir.NewPassManager(lower.Accfg(ports[accelName])).Run(m); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		wantText, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := ir.PrintModule(m); got != string(wantText) {
			t.Errorf("%s lowers to\n%s\nwant\n%s", in, got, wantText)
		}
	}
}

// TestPackedMateWithDroppedValueIsAnError: the arms of a branch set the
// bounds to 2,2,2 and 3,2,2, then a chained setup rewrites J alone. K is
// known after the join (both arms wrote the same value) and is
// re-materialized; I was written on every path but with values the meet
// dropped, so the config_bounds write cannot be packed — before, it was
// packed with I = 0 and the launch ran with zero bounds — and the static
// checker, reading the same rule, knows I as ⊤ and proves nothing. A mate no
// path wrote still packs the reset value.
func TestPackedMateWithDroppedValueIsAnError(t *testing.T) {
	build := func(armsWriteI bool) *ir.Module {
		m := ir.NewModule()
		f := fnc.NewFunc("main", ir.FuncType([]ir.Type{ir.I1}, nil))
		m.Append(f.Op)
		b := ir.AtEnd(f.Body())
		c2 := arith.NewConstant(b, 2, ir.I64)
		c3 := arith.NewConstant(b, 3, ir.I64)
		state := ir.StateType{Accelerator: gemmini.Name}
		ifOp := scf.NewIf(b, f.Body().Arg(0), state)
		for arm, iVal := range []*ir.Value{c2, c3} {
			ab := ir.AtEnd(ifOp.Op.Region(arm).Block())
			fields := []accfg.Field{{Name: "J", Value: c2}, {Name: "K", Value: c2}}
			if armsWriteI {
				fields = append(fields, accfg.Field{Name: "I", Value: iVal})
			}
			scf.NewYield(ab, accfg.NewSetup(ab, gemmini.Name, nil, fields).State())
		}
		s := accfg.NewSetup(b, gemmini.Name, ifOp.Op.Result(0), []accfg.Field{{Name: "J", Value: c3}})
		l := accfg.NewLaunch(b, s.State())
		accfg.NewAwait(b, l.Token())
		fnc.NewReturn(b)
		if err := ir.Verify(m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	if err := accel.Register(gemmini.Port); err != nil {
		t.Fatal(err)
	}
	dropped := build(true)
	if got := analysis.Summarize(dropped).Funcs[0].Launches[0].Fields.Get("I"); !got.IsTop() {
		t.Errorf("the analysis knows the dropped mate as I = %s, want ⊤", got)
	}
	if v := analysis.CompareModules(dropped, dropped.Clone()); v.Proved() {
		t.Errorf("a launch with a dropped mate was proved: %s", v)
	}
	err := ir.NewPassManager(lower.Accfg(gemmini.Port)).Run(dropped)
	if err == nil {
		t.Fatal("lowering packed a mate whose value the meet dropped")
	}
	for _, want := range []string{"lower-accfg-to-gemmini", `"J"`, "config_bounds", `"I"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}

	m := build(false)
	if err := ir.NewPassManager(lower.Accfg(gemmini.Port), passes.Canonicalize()).Run(m); err != nil {
		t.Fatalf("a never-written mate must still pack its reset value: %v", err)
	}
	var bounds []*ir.Op
	m.Walk(func(op *ir.Op) {
		if op.Name() == rocc.OpWrite && rocc.Funct7(op) == gemmini.FnConfigBounds {
			bounds = append(bounds, op)
		}
	})
	last := bounds[len(bounds)-1]
	rs1, ok1 := arith.ConstantValue(last.Operand(0))
	rs2, ok2 := arith.ConstantValue(last.Operand(1))
	if !ok1 || !ok2 || rs1 != 3<<16 || rs2 != 2 {
		t.Errorf("chained bounds write = %#x, %#x (folded %v %v), want I=0 | J=3<<16, K=2\n%s", rs1, rs2, ok1, ok2, ir.PrintModule(m))
	}
}

// TestPackedMateIsWhatTheLoweringPacks: two state chains interleave. s1
// writes I = J = K = 1 (%1), an unchained s2 writes I = 5, and s3 rewrites J
// on s1's chain. The register holds I = 5 when s3 runs, but the lowering
// packs the chain's %1 into s3's config_bounds write, so launch #2 commits
// I = 1 and K = 1 — what the static checker must report too: a checker that
// degrades a written mate reports ⊤ here, and "a chained mate keeps its
// staged value" reports I = 5. The oracle's audit of the same module must not
// find the two disagreeing.
func TestPackedMateIsWhatTheLoweringPacks(t *testing.T) {
	file := filepath.Join("testdata", "interleaved", "gemmini-s1.ir")
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := accel.Register(gemmini.Port); err != nil {
		t.Fatal(err)
	}
	launches := analysis.Summarize(m).Funcs[0].Launches
	for _, field := range []string{"I", "K"} {
		if got := launches[2].Fields.Get(field); !got.Equal(analysis.Const(1)) {
			t.Errorf("launch #2: %s = %s, want 1", field, got)
		}
	}

	var one *ir.Value
	m.Walk(func(op *ir.Op) {
		if s, ok := accfg.AsSetup(op); ok && one == nil {
			one = s.FieldValue("I")
		}
	})
	if err := ir.NewPassManager(lower.Accfg(gemmini.Port)).Run(m); err != nil {
		t.Fatal(err)
	}
	var bounds []*ir.Op
	m.Walk(func(op *ir.Op) {
		if op.Name() == rocc.OpWrite && rocc.Funct7(op) == gemmini.FnConfigBounds {
			bounds = append(bounds, op)
		}
	})
	// rs1 = (I & mask) | ((J & mask) << 16), rs2 = K & mask.
	last := bounds[len(bounds)-1]
	packedI := last.Operand(0).DefiningOp().Operand(0).DefiningOp().Operand(0)
	packedK := last.Operand(1).DefiningOp().Operand(0)
	if packedI != one || packedK != one {
		t.Errorf("s3's config_bounds write packs I from %s and K from %s, want both from s1's %%1\n%s",
			packedI.DefiningOp().Name(), packedK.DefiningOp().Name(), ir.PrintModule(m))
	}

	rep, err := difftest.Replay(file, difftest.Options{Static: difftest.StaticAudit})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invalid {
		t.Fatalf("baseline invalid: %s", rep.InvalidReason)
	}
	for _, d := range rep.Divergences {
		t.Errorf("divergence: %s", d)
	}
	for _, s := range rep.Static {
		if !s.Proved || s.Disagree {
			t.Errorf("%s: static verdict %s (disagree %v), want proved", s.Pipeline, s.Verdict, s.Disagree)
		}
	}
}
