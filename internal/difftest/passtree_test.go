package difftest

// Internal tests for the pass tree: resuming a pipeline from a checkpoint
// another pipeline left must be running it, and a shared pass runs once.

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"configwall/internal/analysis"
	"configwall/internal/core"
	"configwall/internal/ir"
	"configwall/internal/irgen"
)

// preLowered is what the static checker reads off a pipeline's module
// entering its first lower-* pass.
type preLowered struct {
	sum    *analysis.Summary
	bounds analysis.Bounds
}

func (p *preLowered) read(pre *ir.Module) {
	p.sum, p.bounds = analysis.Explore(pre), analysis.StaticBounds(pre)
}

// TestPassTreeMatchesSeparateRuns pins the tree's one assumption: within one
// target's PassPipeline, an equal pass name at an equal position is the same
// pass. For every family of pipelines run as one tree — the optimization
// pipelines (CheckModule's), every registered pipeline, the optimization
// pipelines in reverse, and one pipeline twice (sharing stops at its first
// lowering) — each pipeline's final module prints as its separate run's
// does, and its pre-lowering Explore summary and StaticBounds equal the
// separate run's.
func TestPassTreeMatchesSeparateRuns(t *testing.T) {
	opt := OptimizationPipelines()
	reversed := slices.Clone(opt)
	slices.Reverse(reversed)
	families := [][]core.Pipeline{opt, core.Pipelines, reversed, {core.AllOptimizations, core.AllOptimizations}}
	for _, name := range core.TargetNames() {
		tgt, err := core.LookupTarget(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := irgen.ProfileFor(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			prog, err := irgen.Generate(prof, irgen.DeriveSeed(31, name, i))
			if err != nil {
				t.Fatal(err)
			}
			m := prog.Module
			for _, family := range families {
				pms := make([]*ir.PassManager, len(family))
				for k, p := range family {
					pms[k] = tgt.PassPipeline(p)
				}
				tree := newPassTree(m, pms, nil)
				for k, p := range family {
					var got, want preLowered
					shared, err := tree.run(k, got.read)
					if err != nil {
						t.Fatalf("%s seed %d %v: %s in the tree: %v", name, prog.Seed, family, p, err)
					}
					separate, err := runPasses(m, tgt.PassPipeline(p), nil, want.read)
					if err != nil {
						t.Fatalf("%s seed %d: %s alone: %v", name, prog.Seed, p, err)
					}
					if ir.PrintModule(shared) != ir.PrintModule(separate) {
						t.Errorf("%s seed %d %v: %s prints differently in the tree than alone", name, prog.Seed, family, p)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s seed %d %v: %s reads other pre-lowering facts in the tree (bounds %+v) than alone (%+v)",
							name, prog.Seed, family, p, got.bounds, want.bounds)
					}
				}
			}
		}
	}
}

// TestPassTreeRunsSharedPassesOnce drives the tree with counting passes: a
// pass every pipeline shares runs once, a pass two share runs once, the
// pre-lowering hook sees each pipeline at its own head, and a failing shared
// pass is the failure of exactly the pipelines that share it — the same
// error, while a pipeline that branched off before it runs clean.
func TestPassTreeRunsSharedPassesOnce(t *testing.T) {
	runs := map[string]int{}
	boom := errors.New("boom")
	pass := func(name string, fail bool) ir.Pass {
		return ir.PassFunc{PassName: name, Fn: func(*ir.Module) error {
			runs[name]++
			if fail {
				return boom
			}
			return nil
		}}
	}
	prof, err := irgen.ProfileFor("gemmini")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := irgen.Generate(prof, irgen.DeriveSeed(31, "gemmini", 0))
	if err != nil {
		t.Fatal(err)
	}

	// Pass names double as identities here, so each list spells out what
	// it shares: a and b everyone, c the first and the fourth pipeline, and
	// lower-x, a first lowering, nobody.
	pms := []*ir.PassManager{
		ir.NewPassManager(pass("a", false), pass("b", false), pass("c", true), pass("lower-x", false)),
		ir.NewPassManager(pass("a", false), pass("b", false), pass("lower-x", false), pass("d", false)),
		ir.NewPassManager(pass("a", false), pass("b", false), pass("lower-x", false)),
		ir.NewPassManager(pass("a", false), pass("b", false), pass("c", true), pass("e", false)),
	}
	tree := newPassTree(prog.Module, pms, nil)
	var heads []int
	for i := range pms {
		m, err := tree.run(i, func(*ir.Module) { heads = append(heads, i) })
		switch i {
		case 0, 3:
			if !errors.Is(err, boom) || m != nil {
				t.Errorf("pipeline %d: got (%v, %v), want the shared pass c's failure", i, m, err)
			}
		default:
			if err != nil || m == nil {
				t.Errorf("pipeline %d branched off before c but failed: %v", i, err)
			}
		}
	}
	want := map[string]int{"a": 1, "b": 1, "c": 1, "lower-x": 2, "d": 1}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("pass runs %v, want %v", runs, want)
	}
	if !slices.Equal(heads, []int{1, 2}) {
		t.Errorf("pre-lowering hook saw pipelines %v, want [1 2]", heads)
	}
}
