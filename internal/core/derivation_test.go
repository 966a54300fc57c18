package core

import (
	"slices"
	"testing"

	"configwall/internal/accel/gemmini"
	"configwall/internal/accel/opengemm"
	"configwall/internal/ir"
	"configwall/internal/irgen"
)

// passByPass runs pm over m one pass at a time, as the spans [i, i+1),
// and calls fail for every pass where whether the printed module changed
// and whether PassManager.Changed names the pass disagree. It returns how
// many passes ran and how many changed the printed module.
func passByPass(t *testing.T, pm *ir.PassManager, m *ir.Module, fail func(pass string, printed, reported bool)) (runs, changed int) {
	t.Helper()
	before := ir.PrintModule(m)
	for i, name := range pm.Passes() {
		was := len(pm.Changed)
		if err := pm.RunSpan(m, i, i+1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := ir.PrintModule(m)
		printed, reported := after != before, len(pm.Changed) == was+1
		if printed != reported {
			fail(name, printed, reported)
		}
		if printed {
			changed++
		}
		runs++
		before = after
	}
	return runs, changed
}

// TestChangedMatchesPrintedModule: a pass is reported changed exactly when
// the module it leaves prints differently from the one it found — over
// every pipeline on every cell at n = 8…128 and on the first 100 programs
// per target of the `cwfuzz -seed 1` campaign. The family memo's tails are
// keyed by the passes reported changed; a mutator that bumped no epoch
// would let two cells whose modules differ at the lowering share one.
func TestChangedMatchesPrintedModule(t *testing.T) {
	cells := familyUniverse(t)
	var runs, changed int
	tally := func(r, c int) { runs, changed = runs+r, changed+c }
	for _, e := range cells {
		tg, err := LookupTarget(e.Target)
		if err != nil {
			t.Fatal(err)
		}
		w, err := LookupWorkload(e.Workload)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Build(tg, e.N)
		if err != nil {
			t.Fatal(err)
		}
		tally(passByPass(t, tg.PassPipeline(e.Pipeline), inst.Module, func(pass string, printed, reported bool) {
			t.Errorf("%s: %s: printed module changed %v, reported changed %v", e, pass, printed, reported)
		}))
	}
	t.Logf("%d cells: %d pass runs, %d changed the module", len(cells), runs, changed)
	programs := 100
	if testing.Short() {
		programs = 20
	}
	for _, tn := range []string{gemmini.Name, opengemm.Name} {
		tg, err := LookupTarget(tn)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := irgen.ProfileFor(tn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range programs {
			seed := irgen.DeriveSeed(1, tn, i)
			for _, p := range Pipelines {
				prog, err := irgen.Generate(prof, seed)
				if err != nil {
					t.Fatal(err)
				}
				tally(passByPass(t, tg.PassPipeline(p), prog.Module, func(pass string, printed, reported bool) {
					t.Errorf("%s program %d (seed %d), %s: %s: printed module changed %v, reported changed %v", tn, i, seed, p, pass, printed, reported)
				}))
			}
		}
	}
	t.Logf("with %d programs per target: %d pass runs, %d changed the module", programs, runs, changed)
}

// TestSpansMatchRun: a pipeline run as spans — cut where compile stops (its
// forks and its lowering) or at every depth — leaves the module, Stats and
// Changed that one Run leaves, for every pipeline of both targets on every
// cell at n = 8…128.
func TestSpansMatchRun(t *testing.T) {
	for _, e := range familyUniverse(t) {
		tg, err := LookupTarget(e.Target)
		if err != nil {
			t.Fatal(err)
		}
		w, err := LookupWorkload(e.Workload)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Build(tg, e.N)
		if err != nil {
			t.Fatal(err)
		}
		whole := tg.PassPipeline(e.Pipeline)
		want := inst.Module.Clone()
		if err := whole.Run(want); err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		stops := newForkTable(tg).stops[e.Pipeline]
		every := make([]int, whole.Len())
		for i := range every {
			every[i] = i + 1
		}
		for _, cuts := range [][]int{stops, every} {
			pm, m, at := tg.PassPipeline(e.Pipeline), inst.Module.Clone(), 0
			for _, d := range append(slices.Clone(cuts), pm.Len()) {
				if err := pm.RunSpan(m, at, d); err != nil {
					t.Fatalf("%s: span [%d, %d): %v", e, at, d, err)
				}
				at = d
			}
			if ir.PrintModule(m) != ir.PrintModule(want) {
				t.Errorf("%s cut at %v: the module prints differently than after one Run", e, cuts)
			}
			if !slices.Equal(pm.Stats, whole.Stats) || !slices.Equal(pm.Changed, whole.Changed) {
				t.Errorf("%s cut at %v: Stats %q, Changed %q; one Run logs %q, %q", e, cuts, pm.Stats, pm.Changed, whole.Stats, whole.Changed)
			}
		}
	}
}
