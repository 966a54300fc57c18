package difftest_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"configwall/internal/core"
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/difftest"
	"configwall/internal/ir"
	"configwall/internal/irgen"
)

func targetAndProfile(t *testing.T, name string) (core.Target, irgen.Profile) {
	t.Helper()
	tgt, err := core.LookupTarget(name)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := irgen.ProfileFor(name)
	if err != nil {
		t.Fatal(err)
	}
	return tgt, prof
}

// TestOracleCleanSweep is the in-tree slice of the acceptance run: a seeded
// batch of generated programs per target must produce zero divergences and
// zero invalid programs across every registered optimization pipeline. The
// full 500-program campaign runs as the CI cwfuzz smoke.
func TestOracleCleanSweep(t *testing.T) {
	const programs = 40
	for _, name := range core.TargetNames() {
		tgt, prof := targetAndProfile(t, name)
		for i := 0; i < programs; i++ {
			seed := irgen.DeriveSeed(1, name, i)
			prog, err := irgen.Generate(prof, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			rep := difftest.Check(tgt, prog, difftest.Options{})
			if rep.Invalid {
				t.Errorf("%s seed %d: baseline invalid: %s", name, seed, rep.InvalidReason)
			}
			for _, d := range rep.Divergences {
				t.Errorf("%s seed %d: %s", name, seed, d)
			}
		}
	}
}

// TestCheckDeterministic: checking the same program twice yields an
// identical report — the property behind byte-identical campaign reports.
func TestCheckDeterministic(t *testing.T) {
	for _, name := range core.TargetNames() {
		tgt, prof := targetAndProfile(t, name)
		prog, err := irgen.Generate(prof, irgen.DeriveSeed(7, name, 3))
		if err != nil {
			t.Fatal(err)
		}
		a := difftest.Check(tgt, prog, difftest.Options{})
		b := difftest.Check(tgt, prog, difftest.Options{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: reports differ between identical checks:\n%+v\n%+v", name, a, b)
		}
	}
}

// misdirectOutput is the injected "broken pass": it rewires the output
// address of the program's initial full setup to the A-input address, a
// minimal model of a pass corrupting one configuration field. The first
// launch then scribbles over the A matrix, a persistent corruption no later
// launch can mask. The oracle must catch it and the shrinker must reduce
// the witness.
func misdirectOutput(accelFieldA, accelFieldB string) func(*ir.Module) error {
	return func(m *ir.Module) error {
		var done bool
		m.Walk(func(op *ir.Op) {
			s, ok := accfg.AsSetup(op)
			if !ok || done {
				return
			}
			a := s.FieldValue(accelFieldA)
			b := s.FieldValue(accelFieldB)
			if a == nil || b == nil {
				return
			}
			base := 0
			if s.HasInState() {
				base = 1
			}
			for i, name := range s.FieldNames() {
				if name == accelFieldB {
					s.Op.SetOperand(base+i, a)
					done = true
					return
				}
			}
		})
		if !done {
			return fmt.Errorf("mutation found no setup with both %s and %s", accelFieldA, accelFieldB)
		}
		return nil
	}
}

// TestMutationCaughtAndShrunk: an intentionally broken pipeline must be
// detected as a divergence, and the shrinker must produce a strictly
// smaller module that still reproduces it.
func TestMutationCaughtAndShrunk(t *testing.T) {
	cases := []struct {
		target string
		fieldA string
		fieldB string
	}{
		{"gemmini", "A", "C"},
		{"opengemm", "ptr_a", "ptr_c"},
	}
	for _, tc := range cases {
		t.Run(tc.target, func(t *testing.T) {
			tgt, prof := targetAndProfile(t, tc.target)
			prog, err := irgen.Generate(prof, irgen.DeriveSeed(2, tc.target, 11))
			if err != nil {
				t.Fatal(err)
			}
			opts := difftest.Options{
				Pipelines: []core.Pipeline{core.DedupOnly},
				Mutate:    misdirectOutput(tc.fieldA, tc.fieldB),
			}
			rep := difftest.Check(tgt, prog, opts)
			if rep.Invalid {
				t.Fatalf("baseline invalid: %s", rep.InvalidReason)
			}
			if !rep.Diverged() {
				t.Fatal("oracle missed the injected mutation")
			}
			want := rep.Divergences[0]
			if want.Kind != difftest.KindMemory && want.Kind != difftest.KindLaunchEffect {
				t.Fatalf("unexpected divergence kind for a corrupted address: %s", want)
			}

			before := ir.CountOps(prog.Module)
			sh := difftest.Shrink(tgt, prog, want, opts)
			if sh.Ops >= before {
				t.Fatalf("shrinker made no progress: %d -> %d ops (steps %d, attempts %d)", before, sh.Ops, sh.Steps, sh.Attempts)
			}
			// The minimized witness must still reproduce the same divergence.
			min := difftest.CheckModule(tgt, sh.Module, prog, opts)
			found := false
			for _, d := range min.Divergences {
				if d.Kind == want.Kind && d.Pipeline == want.Pipeline {
					found = true
				}
			}
			if !found {
				t.Fatalf("minimized module no longer reproduces %s:\n%s", want, ir.PrintModule(sh.Module))
			}
			// And it must still be a well-formed, replayable module.
			if err := ir.Verify(sh.Module); err != nil {
				t.Fatalf("minimized module does not verify: %v", err)
			}
			t.Logf("%s: shrank %d -> %d ops in %d steps (%d attempts)", tc.target, before, sh.Ops, sh.Steps, sh.Attempts)
		})
	}
}

// eraseLaunches is the broken pass that drops the accelerator's work: every
// launch of the module goes, with the awaits on its token.
func eraseLaunches(m *ir.Module) error {
	var ops []*ir.Op
	for _, name := range []string{accfg.OpAwait, accfg.OpLaunch} { // users first
		m.Walk(func(op *ir.Op) {
			if op.Name() == name {
				ops = append(ops, op)
			}
		})
	}
	if len(ops) == 0 {
		return fmt.Errorf("mutation found no launch to erase")
	}
	for _, op := range ops {
		op.Erase()
	}
	return nil
}

// TestErasedLaunchesCaught: an optimized module that launches nothing leaves
// its output buffers as initialised, and the oracle must say so — launch
// count and memory both. The optimized program runs in the arena the
// baseline just wrote its results into; were that output still there, the
// images would match and the memory verdict would be lost. The baseline
// image in the report is the check's own copy: no later check changes it.
func TestErasedLaunchesCaught(t *testing.T) {
	for _, name := range core.TargetNames() {
		tgt, prof := targetAndProfile(t, name)
		prog, err := irgen.Generate(prof, irgen.DeriveSeed(2, name, 11))
		if err != nil {
			t.Fatal(err)
		}
		rep := difftest.Check(tgt, prog, difftest.Options{
			Pipelines: []core.Pipeline{core.DedupOnly},
			Mutate:    eraseLaunches,
			Static:    difftest.StaticAudit, // the static reject alone would skip the run
		})
		if rep.Invalid {
			t.Fatalf("%s: baseline invalid: %s", name, rep.InvalidReason)
		}
		kinds := map[difftest.Kind]bool{}
		for _, d := range rep.Divergences {
			kinds[d.Kind] = true
		}
		if !kinds[difftest.KindLaunchCount] || !kinds[difftest.KindMemory] {
			t.Errorf("%s: want launch-count and memory-mismatch divergences, got %v", name, rep.Divergences)
		}

		image := bytes.Clone(rep.Base.Mem)
		other, err := irgen.Generate(prof, irgen.DeriveSeed(2, name, 12))
		if err != nil {
			t.Fatal(err)
		}
		if next := difftest.Check(tgt, other, difftest.Options{}); bytes.Equal(next.Base.Mem, image) {
			t.Fatalf("%s: the second program leaves the same image, so it cannot show a shared one", name)
		}
		if !bytes.Equal(rep.Base.Mem, image) {
			t.Errorf("%s: a later check changed this report's baseline image", name)
		}
	}
}

// bumpConstField models a miscompile the static checker can *prove*: it
// finds a setup field whose value is an arith.constant used only by setup
// ops (so the event structure cannot change) and bumps the constant. The
// abstract comparison then sees Const-vs-Const on a launch-observed field.
func bumpConstField() func(*ir.Module) error {
	return func(m *ir.Module) error {
		var done bool
		m.Walk(func(op *ir.Op) {
			s, ok := accfg.AsSetup(op)
			if !ok || done {
				return
			}
			for _, name := range s.FieldNames() {
				v := s.FieldValue(name)
				def := v.DefiningOp()
				if def == nil || def.Name() != arith.OpConstant {
					continue
				}
				onlySetups := true
				for i := range v.NumUses() {
					if _, ok := accfg.AsSetup(v.Use(i).Op); !ok {
						onlySetups = false
						break
					}
				}
				if !onlySetups {
					continue
				}
				val, _ := arith.ConstantValue(v)
				def.SetAttr("value", ir.IntAttr(val+1))
				done = true
				return
			}
		})
		if !done {
			return fmt.Errorf("mutation found no setup-only constant field")
		}
		return nil
	}
}

// TestStaticPreOracleSkipsSim: a provably miscompiled pipeline is rejected
// by the static pre-oracle without co-simulation (KindStatic, SimSkipped),
// while audit mode still co-simulates and must agree with the dynamic
// verdict — the dynamic oracle catches the mutation on its own.
func TestStaticPreOracleSkipsSim(t *testing.T) {
	tgt, prof := targetAndProfile(t, "gemmini")
	prog, err := irgen.Generate(prof, irgen.DeriveSeed(4, "gemmini", 9))
	if err != nil {
		t.Fatal(err)
	}
	base := difftest.Options{
		Pipelines: []core.Pipeline{core.DedupOnly},
		Mutate:    bumpConstField(),
	}

	pre := base
	pre.Static = difftest.StaticPreOracle
	rep := difftest.Check(tgt, prog, pre)
	if rep.Invalid {
		t.Fatalf("baseline invalid: %s", rep.InvalidReason)
	}
	if len(rep.Static) != 1 || !rep.Static[0].Rejected || !rep.Static[0].SimSkipped {
		t.Fatalf("pre-oracle static outcome not a sim-skipping reject: %+v", rep.Static)
	}
	if len(rep.Divergences) != 1 || rep.Divergences[0].Kind != difftest.KindStatic {
		t.Fatalf("expected exactly one static-reject divergence, got %+v", rep.Divergences)
	}

	audit := base
	audit.Static = difftest.StaticAudit
	rep = difftest.Check(tgt, prog, audit)
	if len(rep.Static) != 1 || !rep.Static[0].Rejected || rep.Static[0].SimSkipped {
		t.Fatalf("audit static outcome not a co-simulated reject: %+v", rep.Static)
	}
	if rep.Static[0].Disagree {
		t.Fatalf("static reject must agree with the dynamic oracle: %+v", rep)
	}
	if !rep.Diverged() {
		t.Fatal("audit mode lost the dynamic divergence")
	}
}

// TestMetamorphicCountersHold: on the paper-shaped workload programs the
// dedup pipelines must strictly reduce configuration traffic, which the
// oracle asserts as an invariant rather than a statistic.
func TestMetamorphicCountersHold(t *testing.T) {
	for _, name := range core.TargetNames() {
		tgt, prof := targetAndProfile(t, name)
		prog, err := irgen.Generate(prof, irgen.DeriveSeed(3, name, 5))
		if err != nil {
			t.Fatal(err)
		}
		rep := difftest.Check(tgt, prog, difftest.Options{Pipelines: []core.Pipeline{core.DedupOnly}})
		if rep.Invalid || rep.Diverged() {
			t.Fatalf("%s: unexpected result: %+v", name, rep)
		}
	}
}

// breakFirstSetup makes the module fail verification without giving the
// first pass anything to trip over: the first setup's accelerator name
// becomes a number, so the verifier after the pipelines' shared opening
// canonicalize rejects it.
func breakFirstSetup(m *ir.Module) error {
	var done bool
	m.Walk(func(op *ir.Op) {
		if _, ok := accfg.AsSetup(op); ok && !done {
			op.SetAttr("accelerator", ir.IntAttr(0))
			done = true
		}
	})
	if !done {
		return fmt.Errorf("mutation found no setup")
	}
	return nil
}

// TestSharedPassFailureMatchesSeparateRuns: when a pass every optimization
// pipeline shares fails, each pipeline reports the pipeline error it reports
// when it runs alone (Execute runs one pipeline), in pipeline order — and so
// does a mutation that fails before any pass runs.
func TestSharedPassFailureMatchesSeparateRuns(t *testing.T) {
	failMutate := func(*ir.Module) error { return fmt.Errorf("no room") }
	for _, name := range core.TargetNames() {
		tgt, prof := targetAndProfile(t, name)
		prog, err := irgen.Generate(prof, irgen.DeriveSeed(5, name, 0))
		if err != nil {
			t.Fatal(err)
		}
		for _, mutate := range []func(*ir.Module) error{breakFirstSetup, failMutate} {
			var want []difftest.Divergence
			for _, p := range difftest.OptimizationPipelines() {
				_, kind, err := difftest.Execute(tgt, prog.Module, prog, tgt.PassPipeline(p), mutate, false)
				if err == nil {
					t.Fatalf("%s: %s runs clean alone under the mutation", name, p)
				}
				want = append(want, difftest.Divergence{Kind: kind, Pipeline: p, Detail: err.Error()})
			}
			if want[0].Kind != difftest.KindPipelineError {
				t.Fatalf("%s: the mutation fails as %s, not in the passes", name, want[0].Kind)
			}
			rep := difftest.Check(tgt, prog, difftest.Options{Mutate: mutate})
			if rep.Invalid {
				t.Fatalf("%s: baseline invalid: %s", name, rep.InvalidReason)
			}
			if !reflect.DeepEqual(rep.Divergences, want) {
				t.Errorf("%s: divergences\n%v\nwant the separate runs'\n%v", name, rep.Divergences, want)
			}
		}
	}
}

// TestMutateRunsOncePerCheck: every optimization pipeline starts from the
// one clone the mutation was applied to, so a check calls Mutate once.
func TestMutateRunsOncePerCheck(t *testing.T) {
	tgt, prof := targetAndProfile(t, "gemmini")
	prog, err := irgen.Generate(prof, irgen.DeriveSeed(5, "gemmini", 1))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rep := difftest.Check(tgt, prog, difftest.Options{Mutate: func(*ir.Module) error {
		calls++
		return nil
	}})
	if rep.Invalid || rep.Diverged() {
		t.Fatalf("a mutation that changes nothing diverged: %+v", rep)
	}
	if calls != 1 {
		t.Errorf("Mutate ran %d times in one check of %d optimization pipelines, want once", calls, len(difftest.OptimizationPipelines()))
	}
}
