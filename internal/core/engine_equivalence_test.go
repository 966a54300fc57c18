package core_test

// Engine-equivalence tests at the experiment layer: the paper's artifacts
// must be byte-identical no matter which simulator engine produced the
// underlying runs. (The instruction-level equivalence proof lives in
// internal/sim and internal/difftest; this pins the end-to-end claim the
// figures depend on.)

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"configwall/internal/core"
	"configwall/internal/sim"
)

func TestResultsIdenticalAcrossEngines(t *testing.T) {
	for _, target := range []core.Target{core.GemminiTarget(), core.OpenGeMMTarget()} {
		for _, p := range []core.Pipeline{core.Baseline, core.AllOptimizations} {
			ref, err := core.RunTiledMatmul(target, p, 32,
				core.RunOptions{RecordTrace: true, Engine: sim.EngineRef})
			if err != nil {
				t.Fatal(err)
			}
			fast, err := core.RunTiledMatmul(target, p, 32,
				core.RunOptions{RecordTrace: true, Engine: sim.EngineFast})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Counters != fast.Counters {
				t.Errorf("%s/%s: counters differ:\nref:  %+v\nfast: %+v",
					target.Name, p, ref.Counters, fast.Counters)
			}
			if !reflect.DeepEqual(ref.Trace, fast.Trace) {
				t.Errorf("%s/%s: traces differ (%d vs %d segments)",
					target.Name, p, len(ref.Trace), len(fast.Trace))
			}
			if !ref.Verified || !fast.Verified {
				t.Errorf("%s/%s: verification: ref=%v fast=%v", target.Name, p, ref.Verified, fast.Verified)
			}
		}
	}
}

// TestFigureOutputsIdenticalAcrossEngines pins the paper: Figures 10 and 11
// at their default sizes must render the same text under the reference
// interpreter and under the zero-value engine every default path runs,
// with the headline geomeans cwbench prints, and the §4.6 worked example
// keeps Table 1's configuration footprint. A simplification that drifts
// the reproduction fails here rather than silently.
func TestFigureOutputsIdenticalAcrossEngines(t *testing.T) {
	render := func(opts core.RunOptions) (fig10, fig11 string) {
		opts.SkipVerify = true
		ctx, r := context.Background(), core.NewRunner(0)
		rows10, err := core.Figure10With(ctx, r, core.Figure10Sizes, opts)
		if err != nil {
			t.Fatal(err)
		}
		rows11, err := core.Figure11With(ctx, r, core.Figure11Sizes, opts)
		if err != nil {
			t.Fatal(err)
		}
		return core.RenderFigure10(rows10), core.RenderFigure11(rows11)
	}
	ref10, ref11 := render(core.RunOptions{Engine: sim.EngineRef})
	def10, def11 := render(core.RunOptions{})
	if ref10 != def10 {
		t.Errorf("Figure 10 rendering differs between engines:\nref:\n%s\ndefault:\n%s", ref10, def10)
	}
	if ref11 != def11 {
		t.Errorf("Figure 11 rendering differs between engines:\nref:\n%s\ndefault:\n%s", ref11, def11)
	}
	if want := "geomean uplift: 28.5%"; !strings.Contains(def10, want) {
		t.Errorf("Figure 10 lost its headline %q:\n%s", want, def10)
	}
	if want := "geomean speedup: 1.94x"; !strings.Contains(def11, want) {
		t.Errorf("Figure 11 lost its headline %q:\n%s", want, def11)
	}
	if e := core.Section46Example(); e.ConfigBytes != 2560 || e.ConfigInstrs != 160 {
		t.Errorf("worked example = %.0f config bytes / %d RoCC instructions, want 2560 / 160", e.ConfigBytes, e.ConfigInstrs)
	}
}

// TestRunnerKeepsEnginesSeparate: a cached ref-engine result must not be
// served to a fast-engine request (it would make cross-engine comparisons
// vacuous), even though the payloads are identical.
func TestRunnerKeepsEnginesSeparate(t *testing.T) {
	r := core.NewRunner(1)
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 16}
	if _, err := r.Run(context.Background(), e, core.RunOptions{SkipVerify: true, Engine: sim.EngineRef}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), e, core.RunOptions{SkipVerify: true, Engine: sim.EngineFast}); err != nil {
		t.Fatal(err)
	}
	if s := r.Snapshot(); s.Runs != 2 {
		t.Errorf("Runs = %d, want 2 (one per engine; engines must not share cache cells)", s.Runs)
	}
}
