package core

import (
	"testing"

	"configwall/internal/accel/gemmini"
	"configwall/internal/accel/opengemm"
	"configwall/internal/ir"
	"configwall/internal/irgen"
)

// passByPass runs pm over m one pass at a time and calls fail for every
// pass where whether the printed module changed and whether
// PassManager.Changed names the pass disagree. It returns how many passes
// ran and how many changed the printed module.
func passByPass(t *testing.T, pm *ir.PassManager, m *ir.Module, fail func(pass string, printed, reported bool)) (runs, changed int) {
	t.Helper()
	rest := pm
	before := ir.PrintModule(m)
	for _, name := range pm.Passes() {
		var seg *ir.PassManager
		seg, rest = rest.Split(1)
		if err := seg.Run(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := ir.PrintModule(m)
		printed, reported := after != before, len(seg.Changed) == 1
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
