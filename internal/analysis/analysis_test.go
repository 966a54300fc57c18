package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"configwall/internal/accel"
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/ir"
)

func parseIR(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func parsePassTestdata(t *testing.T, name string) *ir.Module {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "passes", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return parseIR(t, string(src))
}

func TestAbsValLattice(t *testing.T) {
	cases := []struct {
		a, b, want AbsVal
	}{
		{Bottom(), Const(3), Const(3)},
		{Const(3), Const(3), Const(3)},
		{Const(3), Const(4), Top()},
		{Sym("x"), Sym("x"), Sym("x")},
		{Sym("x"), Sym("y"), Top()},
		{Const(3), Sym("x"), Top()},
		{Top(), Const(3), Top()},
	}
	for _, c := range cases {
		if got := c.a.Join(c.b); !got.Equal(c.want) {
			t.Errorf("Join(%s, %s) = %s, want %s", c.a, c.b, got, c.want)
		}
		if got := c.b.Join(c.a); !got.Equal(c.want) {
			t.Errorf("Join(%s, %s) = %s, want %s (commuted)", c.b, c.a, got, c.want)
		}
	}
	if !Const(3).ProvablyDifferent(Const(4)) || Const(3).ProvablyDifferent(Const(3)) {
		t.Error("ProvablyDifferent wrong on constants")
	}
	if Sym("x").ProvablyDifferent(Sym("y")) {
		t.Error("distinct symbols are not provably different")
	}
	if !Sym("x").ProvablyEqual(Sym("x")) || Sym("x").ProvablyEqual(Top()) {
		t.Error("ProvablyEqual wrong on symbols")
	}
}

const straightLine = `
"builtin.module"() ({
  "fnc.func"() ({
    %0 = "arith.constant"() {value = 5 : i64} : () -> (i64)
    %1 = "arith.constant"() {value = 9 : i64} : () -> (i64)
    %2 = "accfg.setup"(%0, %1) {accelerator = "acc", fields = ["x", "y"]} : (i64, i64) -> (!accfg.state<"acc">)
    %3 = "accfg.launch"(%2) : (!accfg.state<"acc">) -> (!accfg.token<"acc">)
    "accfg.await"(%3) : (!accfg.token<"acc">) -> ()
    "fnc.return"() : () -> ()
  }) {function_type = () -> (), sym_name = "main"} : () -> ()
}) : () -> ()
`

func TestExploreStraightLine(t *testing.T) {
	m := parseIR(t, straightLine)
	s := Explore(m)
	fp := s.funcs["main"]
	if fp == nil || len(fp.inconclusive) > 0 {
		t.Fatalf("exploration inconclusive: %v", fp)
	}
	if len(fp.paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(fp.paths))
	}
	ev := fp.paths[0].events
	if len(ev) != 1 || ev[0].kind != evLaunch || ev[0].accel != "acc" {
		t.Fatalf("events = %v, want one acc launch", ev)
	}
	if got := ev[0].fields.Get("x"); !got.Equal(Const(5)) {
		t.Errorf("launch sees x = %s, want 5", got)
	}
	if got := ev[0].fields.Get("y"); !got.Equal(Const(9)) {
		t.Errorf("launch sees y = %s, want 9", got)
	}
	// Never-written fields read as the hardware reset value.
	if got := ev[0].fields.Get("z"); !got.Equal(Const(0)) {
		t.Errorf("unwritten field reads %s, want 0", got)
	}
}

func TestCompareIdenticalProved(t *testing.T) {
	m := parseIR(t, straightLine)
	v := CompareModules(m, m.Clone())
	if !v.Proved() {
		t.Fatalf("self-comparison not proved: %s", v)
	}
}

// mutateConstant rewrites the first arith.constant holding `from` to `to`.
func mutateConstant(t *testing.T, m *ir.Module, from, to int64) {
	t.Helper()
	done := false
	m.Walk(func(op *ir.Op) {
		if done || op.Name() != arith.OpConstant {
			return
		}
		if c, _ := op.IntAttrValue("value"); c == from {
			op.SetAttr("value", ir.IntAttr(to))
			done = true
		}
	})
	if !done {
		t.Fatalf("no constant %d found", from)
	}
}

func TestCompareRejectsFieldChange(t *testing.T) {
	m := parseIR(t, straightLine)
	opt := m.Clone()
	mutateConstant(t, opt, 9, 10)
	v := CompareModules(m, opt)
	if !v.Rejected() {
		t.Fatalf("mutated field not rejected: %s", v)
	}
	if !strings.Contains(v.String(), "field y") {
		t.Errorf("finding does not name the field: %s", v)
	}
}

func TestCompareRejectsDroppedLaunch(t *testing.T) {
	m := parseIR(t, straightLine)
	opt := m.Clone()
	opt.Walk(func(op *ir.Op) {
		if op.Name() == accfg.OpAwait {
			op.Erase()
		}
	})
	opt.Walk(func(op *ir.Op) {
		if op.Name() == accfg.OpLaunch {
			op.Erase()
		}
	})
	v := CompareModules(m, opt)
	if !v.Rejected() {
		t.Fatalf("dropped launch not rejected: %s", v)
	}
}

const branchy = `
"builtin.module"() ({
  "fnc.func"() ({
    ^(%p: i64):
    %0 = "arith.constant"() {value = 0 : i64} : () -> (i64)
    %1 = "arith.constant"() {value = 1 : i64} : () -> (i64)
    %2 = "arith.constant"() {value = 2 : i64} : () -> (i64)
    %3 = "arith.cmpi"(%p, %0) {predicate = "ne"} : (i64, i64) -> (i1)
    %4 = "scf.if"(%3) ({
      %5 = "accfg.setup"(%1) {accelerator = "acc", fields = ["x"]} : (i64) -> (!accfg.state<"acc">)
      "scf.yield"(%5) : (!accfg.state<"acc">) -> ()
    }, {
      %6 = "accfg.setup"(%2) {accelerator = "acc", fields = ["x"]} : (i64) -> (!accfg.state<"acc">)
      "scf.yield"(%6) : (!accfg.state<"acc">) -> ()
    }) : (i1) -> (!accfg.state<"acc">)
    %7 = "accfg.launch"(%4) : (!accfg.state<"acc">) -> (!accfg.token<"acc">)
    "accfg.await"(%7) : (!accfg.token<"acc">) -> ()
    "fnc.return"() : () -> ()
  }) {function_type = (i64) -> (), sym_name = "main"} : () -> ()
}) : () -> ()
`

func TestExploreForksOnSymbolicBranch(t *testing.T) {
	m := parseIR(t, branchy)
	s := Explore(m)
	fp := s.funcs["main"]
	if len(fp.inconclusive) > 0 {
		t.Fatalf("inconclusive: %v", fp.inconclusive)
	}
	if len(fp.paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(fp.paths))
	}
	seen := map[int64]bool{}
	for _, p := range fp.paths {
		if len(p.events) != 1 {
			t.Fatalf("path events = %v", p.events)
		}
		c, ok := p.events[0].fields.Get("x").ConstValue()
		if !ok {
			t.Fatalf("x not constant on path %q", p.signature())
		}
		seen[c] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("branch values = %v, want {1, 2}", seen)
	}
	if v := CompareModules(m, m.Clone()); !v.Proved() {
		t.Errorf("branchy self-comparison not proved: %s", v)
	}
}

func TestExploreUnrollsConstantLoop(t *testing.T) {
	m := parsePassTestdata(t, "overlap.ir")
	s := Explore(m)
	fp := s.funcs["overlap"]
	if fp == nil {
		t.Fatal("function not explored")
	}
	if len(fp.inconclusive) > 0 {
		t.Fatalf("inconclusive: %v", fp.inconclusive)
	}
	if len(fp.paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(fp.paths))
	}
	ev := fp.paths[0].events
	if len(ev) != 6 {
		t.Fatalf("events = %d, want 6 launches", len(ev))
	}
	// Iteration i commits addr = base + 128*i: symbolic in base, distinct
	// canonical keys per iteration, len constant throughout.
	for i, e := range ev {
		if e.kind != evLaunch {
			t.Fatalf("event %d is %s, want launch", i, e)
		}
		if got := e.fields.Get("len"); !got.Equal(Const(128)) {
			t.Errorf("iteration %d len = %s, want 128", i, got)
		}
	}
	if ev[0].fields.Get("addr").Equal(ev[1].fields.Get("addr")) {
		t.Error("distinct iterations must see distinct addr keys")
	}
}

func TestCompareCatchesStagingReorderAcrossLaunch(t *testing.T) {
	// Base: configure x=1, launch, configure x=2, launch.
	// Broken optimization: both setups hoisted above the first launch, so
	// launch #0 commits x=2 instead of x=1.
	base := parseIR(t, `
"builtin.module"() ({
  "fnc.func"() ({
    %0 = "arith.constant"() {value = 1 : i64} : () -> (i64)
    %1 = "arith.constant"() {value = 2 : i64} : () -> (i64)
    %2 = "accfg.setup"(%0) {accelerator = "acc", fields = ["x"]} : (i64) -> (!accfg.state<"acc">)
    %3 = "accfg.launch"(%2) : (!accfg.state<"acc">) -> (!accfg.token<"acc">)
    "accfg.await"(%3) : (!accfg.token<"acc">) -> ()
    %4 = "accfg.setup"(%2, %1) {accelerator = "acc", fields = ["x"], in_state} : (!accfg.state<"acc">, i64) -> (!accfg.state<"acc">)
    %5 = "accfg.launch"(%4) : (!accfg.state<"acc">) -> (!accfg.token<"acc">)
    "accfg.await"(%5) : (!accfg.token<"acc">) -> ()
    "fnc.return"() : () -> ()
  }) {function_type = () -> (), sym_name = "main"} : () -> ()
}) : () -> ()
`)
	opt := parseIR(t, `
"builtin.module"() ({
  "fnc.func"() ({
    %0 = "arith.constant"() {value = 1 : i64} : () -> (i64)
    %1 = "arith.constant"() {value = 2 : i64} : () -> (i64)
    %2 = "accfg.setup"(%0) {accelerator = "acc", fields = ["x"]} : (i64) -> (!accfg.state<"acc">)
    %4 = "accfg.setup"(%2, %1) {accelerator = "acc", fields = ["x"], in_state} : (!accfg.state<"acc">, i64) -> (!accfg.state<"acc">)
    %3 = "accfg.launch"(%2) : (!accfg.state<"acc">) -> (!accfg.token<"acc">)
    "accfg.await"(%3) : (!accfg.token<"acc">) -> ()
    %5 = "accfg.launch"(%4) : (!accfg.state<"acc">) -> (!accfg.token<"acc">)
    "accfg.await"(%5) : (!accfg.token<"acc">) -> ()
    "fnc.return"() : () -> ()
  }) {function_type = () -> (), sym_name = "main"} : () -> ()
}) : () -> ()
`)
	v := CompareModules(base, opt)
	if !v.Rejected() {
		t.Fatalf("reordered staging write across launch not rejected: %s", v)
	}
}

func TestPassCheck(t *testing.T) {
	m := parseIR(t, straightLine)
	if err := PassCheck("canonicalize", m, m.Clone()); err != nil {
		t.Fatalf("identity pass rejected: %v", err)
	}
	bad := m.Clone()
	mutateConstant(t, bad, 5, 6)
	err := PassCheck("canonicalize", m, bad)
	if err == nil {
		t.Fatal("mutated module accepted")
	}
	if _, ok := err.(*RejectError); !ok {
		t.Fatalf("error is %T, want *RejectError", err)
	}
	// Lowering passes are exempt: they translate accfg away by design.
	if err := PassCheck("lower-gemmini", m, bad); err != nil {
		t.Fatalf("lowering pass not exempt: %v", err)
	}
}

func TestStaticBounds(t *testing.T) {
	// sink.ir: loop 0..4 step 1 = 4 iterations, each with a branch setup
	// (1 field either arm), a 2-field setup, and a launch (1 job + 1 write).
	m := parsePassTestdata(t, "sink.ir")
	b := StaticBounds(m)
	if b.MinLaunches != 4 {
		t.Errorf("MinLaunches = %d, want 4", b.MinLaunches)
	}
	if b.MinConfigInstrs != 16 {
		t.Errorf("MinConfigInstrs = %d, want 16", b.MinConfigInstrs)
	}
	// hoist.ir: 8 iterations x (3-field setup + launch).
	b = StaticBounds(parsePassTestdata(t, "hoist.ir"))
	if b.MinLaunches != 8 || b.MinConfigInstrs != 32 {
		t.Errorf("hoist bounds = %+v, want {8 32}", b)
	}
}

func TestSummarizeFlow(t *testing.T) {
	m := parsePassTestdata(t, "sink.ir")
	sum := Summarize(m)
	if len(sum.Funcs) != 1 || len(sum.Funcs[0].Launches) != 1 {
		t.Fatalf("summary shape = %+v", sum)
	}
	l := sum.Funcs[0].Launches[0]
	// The trailing setup rewrites x=1 and y=7 on every path, so the launch
	// configuration is constant despite the branch underneath.
	if got := l.Fields.Get("x"); !got.Equal(Const(1)) {
		t.Errorf("x = %s, want 1", got)
	}
	if got := l.Fields.Get("y"); !got.Equal(Const(7)) {
		t.Errorf("y = %s, want 7", got)
	}
}

// TestForwardSolverReuse: the flow summary's recursion (flow.block) reaches
// a launch nested in a loop, and reports none where there is none. It took
// the id of the test that drove the generic solver through a second,
// test-only problem; the solver went, the property stays.
func TestForwardSolverReuse(t *testing.T) {
	for _, f := range Summarize(parsePassTestdata(t, "sink.ir")).Funcs {
		if len(f.Launches) == 0 {
			t.Error("launch inside loop not reached")
		}
	}
	m2 := parseIR(t, `
"builtin.module"() ({
  "fnc.func"() ({
    "fnc.return"() : () -> ()
  }) {function_type = () -> (), sym_name = "empty"} : () -> ()
}) : () -> ()
`)
	for _, f := range Summarize(m2).Funcs {
		if len(f.Launches) != 0 {
			t.Error("empty function reported a launch")
		}
	}
}

func TestInterferenceQueries(t *testing.T) {
	m := parsePassTestdata(t, "sink.ir")
	var setup, launch, innerSetup *ir.Op
	m.Walk(func(op *ir.Op) {
		switch op.Name() {
		case accfg.OpSetup:
			if op.ParentOp().Name() == "scf.if" && innerSetup == nil {
				innerSetup = op
			}
			if op.ParentOp().Name() == "scf.for" {
				setup = op
			}
		case accfg.OpLaunch:
			launch = op
		}
	})
	if setup == nil || launch == nil || innerSetup == nil {
		t.Fatal("testdata shape changed")
	}
	if !TouchesStaging(setup, "acc") || !TouchesStaging(launch, "acc") {
		t.Error("setup/launch must touch acc staging")
	}
	if TouchesStaging(setup, "other") {
		t.Error("setup touches a different accelerator's staging")
	}
	// The branch setup sits before the launch in the loop body: reachable
	// both as a later sibling and via the loop's wrap-around.
	if !LaunchReachableAfter(innerSetup.ParentOp(), "acc") {
		t.Error("launch after the branch not seen")
	}
	// The await follows the launch in block order, but the enclosing loop
	// wraps around to the launch on the next iteration.
	await := launch.Next()
	if await == nil || await.Name() != accfg.OpAwait {
		t.Fatal("await not directly after launch")
	}
	if !LaunchReachableAfter(await, "acc") {
		t.Error("wrap-around launch not seen from the await")
	}
	// After the loop no launch remains reachable.
	var loop *ir.Op
	m.Walk(func(op *ir.Op) {
		if op.Name() == "scf.for" {
			loop = op
		}
	})
	ret := loop.Next()
	if ret == nil || LaunchReachableAfter(ret, "acc") {
		t.Error("no launch is reachable after the loop")
	}
}

// staged builds a field state from its fields in any order.
func staged(fields map[string]AbsVal) FieldState {
	var fs FieldState
	for name, v := range fields {
		fs = set(fs, name, v)
	}
	return fs
}

// TestComparePathVisitsFieldUnionInOrder: a launch is compared over the
// union of the field names either side wrote, each name once, in sorted
// order — the order every finding and inconclusive line of a report is in.
func TestComparePathVisitsFieldUnionInOrder(t *testing.T) {
	launch := func(fs FieldState) *path {
		return &path{events: []event{{kind: evLaunch, accel: "acc", fields: fs}}}
	}
	var v Verdict
	comparePath(&v, "main", "",
		launch(staged(map[string]AbsVal{"a": Top(), "c": Top(), "e": Top()})),
		launch(staged(map[string]AbsVal{"d": Top(), "c": Top(), "b": Top()})))
	if len(v.Findings) != 0 || len(v.Inconclusive) != 5 {
		t.Fatalf("want 5 undecided fields and no finding, got %s", v)
	}
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		if want := "field " + name + " undecided"; !strings.Contains(v.Inconclusive[i], want) {
			t.Errorf("line %d = %q, want it to say %q", i, v.Inconclusive[i], want)
		}
	}

	// The first provably different name in that order is the finding,
	// whichever side wrote it.
	for _, tc := range []struct {
		base, opt FieldState
		field     string
	}{
		{staged(map[string]AbsVal{"m": Const(1), "z": Const(1)}), staged(map[string]AbsVal{"k": Const(2), "m": Const(1)}), "field k"},
		{staged(map[string]AbsVal{"z": Const(1)}), staged(map[string]AbsVal{}), "field z"},
		{staged(map[string]AbsVal{}), staged(map[string]AbsVal{"z": Const(1)}), "field z"},
	} {
		var v Verdict
		comparePath(&v, "main", "", launch(tc.base), launch(tc.opt))
		if len(v.Findings) != 1 || !strings.Contains(v.Findings[0].Detail, tc.field) {
			t.Errorf("base %s, optimized %s: want one finding on %s, got %s", tc.base, tc.opt, tc.field, v)
		}
	}
}

// chainedRewrite configures x and y, launches, then rewrites x alone on the
// same state chain and launches again.
const chainedRewrite = `
"builtin.module"() ({
  "fnc.func"() ({
    %0 = "arith.constant"() {value = 1 : i64} : () -> (i64)
    %1 = "arith.constant"() {value = 2 : i64} : () -> (i64)
    %2 = "arith.constant"() {value = 3 : i64} : () -> (i64)
    %3 = "accfg.setup"(%0, %1) {accelerator = "ACC", fields = ["x", "y"]} : (i64, i64) -> (!accfg.state<"ACC">)
    %4 = "accfg.launch"(%3) : (!accfg.state<"ACC">) -> (!accfg.token<"ACC">)
    "accfg.await"(%4) : (!accfg.token<"ACC">) -> ()
    %5 = "accfg.setup"(%3, %2) {accelerator = "ACC", fields = ["x"], in_state} : (!accfg.state<"ACC">, i64) -> (!accfg.state<"ACC">)
    %6 = "accfg.launch"(%5) : (!accfg.state<"ACC">) -> (!accfg.token<"ACC">)
    "accfg.await"(%6) : (!accfg.token<"ACC">) -> ()
    "fnc.return"() : () -> ()
  }) {function_type = () -> (), sym_name = "main"} : () -> ()
}) : () -> ()
`

// secondLaunchY returns what the flow summary knows of y at the second
// launch of chainedRewrite on the named accelerator.
func secondLaunchY(t *testing.T, accelerator string) AbsVal {
	t.Helper()
	sum := Summarize(parseIR(t, strings.ReplaceAll(chainedRewrite, "ACC", accelerator)))
	if len(sum.Funcs) != 1 || len(sum.Funcs[0].Launches) != 2 {
		t.Fatalf("summary shape = %+v", sum)
	}
	return sum.Funcs[0].Launches[1].Fields.Get("y")
}

// setupOf parses one setup on accelerator writing the named fields, each
// from one constant. It is not verified, so a field may be named twice.
func setupOf(t *testing.T, accelerator string, fields ...string) accfg.Setup {
	t.Helper()
	names := make([]string, len(fields))
	operands := make([]string, len(fields))
	types := make([]string, len(fields))
	for i, f := range fields {
		names[i], operands[i], types[i] = strconv.Quote(f), "%0", "i64"
	}
	m, err := ir.Parse(fmt.Sprintf(`
"builtin.module"() ({
  "fnc.func"() ({
    %%0 = "arith.constant"() {value = 1 : i64} : () -> (i64)
    %%1 = "accfg.setup"(%s) {accelerator = %q, fields = [%s]} : (%s) -> (!accfg.state<%q>)
    "fnc.return"() : () -> ()
  }) {function_type = () -> (), sym_name = "main"} : () -> ()
}) : () -> ()
`, strings.Join(operands, ", "), accelerator, strings.Join(names, ", "), strings.Join(types, ", "), accelerator))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var s accfg.Setup
	m.Walk(func(op *ir.Op) {
		if found, ok := accfg.AsSetup(op); ok {
			s = found
		}
	})
	if s.Op == nil || s.NumFields() != len(fields) {
		t.Fatalf("no setup of %d fields parsed", len(fields))
	}
	return s
}

func TestUnregisteredAcceleratorIsFieldGranular(t *testing.T) {
	if accel.PortFor("nobody") != nil {
		t.Fatal(`an accelerator named "nobody" is registered`)
	}
	if got := secondLaunchY(t, "nobody"); !got.Equal(Const(2)) {
		t.Errorf("y = %s after rewriting x on an unregistered accelerator, want 2", got)
	}
	if got := configInstrsFor(setupOf(t, "nobody", "x", "y")); got != 2 {
		t.Errorf("configInstrsFor = %d, want one write per field", got)
	}
}

// pairPort packs two fields into one RoCC write and is not Gemmini: the
// packed-mate rule is keyed by the registered port, not by a name.
var pairPort = &accel.Port{
	Accel: "pairacc",
	Kind:  accel.RoCC,
	Writes: []accel.ConfigWrite{
		{ID: 0, Name: "config_xy", Slots: []accel.FieldSlot{accel.Slot("x", 0, 0, 32), accel.Slot("y", 1, 0, 32)}},
	},
	Launch: 1,
	Sync:   2,
}

// TestPackedMateFollowsTheChainOnAnyRegisteredPort: rewriting x alone also
// rewrites its packed mate y, with what PackedMate says the lowering packs —
// the first setup's y (%1 = 2), known on the chain.
func TestPackedMateFollowsTheChainOnAnyRegisteredPort(t *testing.T) {
	if err := accel.Register(pairPort); err != nil {
		t.Fatal(err)
	}
	if got := secondLaunchY(t, "pairacc"); !got.Equal(Const(2)) {
		t.Errorf("y = %s after its packed mate x was rewritten, want 2", got)
	}
	m := parseIR(t, strings.ReplaceAll(chainedRewrite, "ACC", "pairacc"))
	var setups []accfg.Setup
	m.Walk(func(op *ir.Op) {
		if s, ok := accfg.AsSetup(op); ok {
			setups = append(setups, s)
		}
	})
	fs := AnalyzeFields(slices.Collect(m.Funcs)[0])
	if v, ok := PackedMate(fs, setups[1], "y"); !ok || v != setups[0].FieldValue("y") {
		t.Errorf("PackedMate(y) = %v, %v; want the first setup's y", v, ok)
	}
	if v, ok := PackedMate(fs, setups[0], "y"); !ok || v != nil {
		t.Errorf("PackedMate on an unchained setup = %v, %v; want the reset value", v, ok)
	}
	if got := configInstrsFor(setupOf(t, "pairacc", "x", "y")); got != 1 {
		t.Errorf("configInstrsFor = %d, want 1 (x and y share a write)", got)
	}
	if got := configInstrsFor(setupOf(t, "pairacc", "x", "zz", "y", "zz")); got != 3 {
		t.Errorf("configInstrsFor = %d, want 3 (one shared write, two unknown fields)", got)
	}
}

// TestStagingIsCopiedOnWrite: a field state is shared, never changed in
// place — a launch event, a flow record and every clone of an absState hold
// the slice they saw. A setup, a havoc and an unmodeled op each write a
// fresh copy, so the first launch below keeps x = 1 on both engines however
// the later writes, the branch's clones and the clobber are ordered.
func TestStagingIsCopiedOnWrite(t *testing.T) {
	m := parseIR(t, `
"builtin.module"() ({
  "fnc.func"() ({
    ^(%p: i64):
    %0 = "arith.constant"() {value = 1 : i64} : () -> (i64)
    %1 = "arith.constant"() {value = 2 : i64} : () -> (i64)
    %2 = "accfg.setup"(%0) {accelerator = "acc", fields = ["x"]} : (i64) -> (!accfg.state<"acc">)
    %3 = "accfg.launch"(%2) : (!accfg.state<"acc">) -> (!accfg.token<"acc">)
    "accfg.await"(%3) : (!accfg.token<"acc">) -> ()
    %4 = "arith.cmpi"(%p, %0) {predicate = "ne"} : (i64, i64) -> (i1)
    %5 = "scf.if"(%4) ({
      %6 = "accfg.setup"(%2, %1) {accelerator = "acc", fields = ["x"], in_state} : (!accfg.state<"acc">, i64) -> (!accfg.state<"acc">)
      "scf.yield"(%6) : (!accfg.state<"acc">) -> ()
    }, {
      "test.clobber"() {accfg.effects = #accfg.effects<none>} : () -> ()
      "scf.yield"(%2) : (!accfg.state<"acc">) -> ()
    }) : (i1) -> (!accfg.state<"acc">)
    %7 = "accfg.launch"(%5) : (!accfg.state<"acc">) -> (!accfg.token<"acc">)
    "accfg.await"(%7) : (!accfg.token<"acc">) -> ()
    "fnc.return"() : () -> ()
  }) {function_type = (i64) -> (), sym_name = "main"} : () -> ()
}) : () -> ()
`)
	fp := Explore(m).funcs["main"]
	if len(fp.inconclusive) > 0 || len(fp.paths) != 2 {
		t.Fatalf("exploration: %d paths, inconclusive %v", len(fp.paths), fp.inconclusive)
	}
	for _, p := range fp.paths {
		if len(p.events) != 2 {
			t.Fatalf("path %q events = %v", p.signature(), p.events)
		}
		if got := p.events[0].fields.Get("x"); !got.Equal(Const(1)) {
			t.Errorf("path %q: first launch sees x = %s after a later write, want 1", p.signature(), got)
		}
	}

	// The flow summary joins the arms, and an op that may clobber the
	// staging (here: an unregistered op with no effects annotation in the
	// else arm) degrades it to ⊤ without touching the record of launch 0.
	clobbering := strings.Replace(ir.PrintModule(m), ` {accfg.effects = #accfg.effects<none>}`, ``, 1)
	for _, src := range []*ir.Module{m, parseIR(t, clobbering)} {
		launches := Summarize(src).Funcs[0].Launches
		if len(launches) != 2 {
			t.Fatalf("summary has %d launches, want 2", len(launches))
		}
		if got := launches[0].Fields.Get("x"); !got.Equal(Const(1)) {
			t.Errorf("flow record of launch 0: x = %s, want 1", got)
		}
		if got := launches[1].Fields.Get("x"); !got.IsTop() {
			t.Errorf("flow record of launch 1: x = %s, want ⊤ (2 on one arm, 1 or clobbered on the other)", got)
		}
	}
}
