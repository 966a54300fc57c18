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

// TestResultsIdenticalAcrossEngines compares the two engines' traced runs
// of one cell — counters, timelines and verification — through the direct
// traced Execute, the only path that records a timeline.
func TestResultsIdenticalAcrossEngines(t *testing.T) {
	for _, target := range []core.Target{core.GemminiTarget(), core.OpenGeMMTarget()} {
		for _, p := range []core.Pipeline{core.Baseline, core.AllOptimizations} {
			ref := tracedMatmul(t, target, p, 32, core.RunOptions{Engine: sim.EngineRef})
			fast := tracedMatmul(t, target, p, 32, core.RunOptions{Engine: sim.EngineFast})
			if len(ref.Trace) == 0 {
				t.Errorf("%s/%s: traced run recorded no segments", target.Name, p)
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

// TestFigureOutputsIdenticalAcrossEngines pins the paper: every cell Figures
// 10 and 11 measure at their default sizes has the same Result under the
// reference interpreter as under the zero-value engine every default path
// runs, so the figures, a function of those Results, render the same text;
// the rendering keeps the headline geomeans cwbench prints, and the §4.6
// worked example keeps Table 1's configuration footprint. A simplification
// that drifts the reproduction fails here rather than silently.
func TestFigureOutputsIdenticalAcrossEngines(t *testing.T) {
	ctx := context.Background()
	cells := append(core.Figure10.Experiments(core.Figure10Sizes), core.Figure11.Experiments(core.Figure11Sizes)...)
	ref, err := core.NewRunner(0).RunAll(ctx, cells, core.RunOptions{Engine: sim.EngineRef})
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRunner(0)
	def, err := r.RunAll(ctx, cells, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range cells {
		if !reflect.DeepEqual(ref[i], def[i]) {
			t.Errorf("%s: Result differs between engines:\nref:     %+v\ndefault: %+v", e, ref[i], def[i])
		}
	}
	rows10, err := core.Figure10.With(ctx, r, core.Figure10Sizes)
	if err != nil {
		t.Fatal(err)
	}
	rows11, err := core.Figure11.With(ctx, r, core.Figure11Sizes)
	if err != nil {
		t.Fatal(err)
	}
	def10, def11 := core.RenderFigure10(rows10), core.RenderFigure11(rows11)
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
	if _, err := r.Run(context.Background(), e, core.RunOptions{Engine: sim.EngineRef}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), e, core.RunOptions{Engine: sim.EngineFast}); err != nil {
		t.Fatal(err)
	}
	if s := r.Snapshot(); s.Runs != 2 {
		t.Errorf("Runs = %d, want 2 (one per engine; engines must not share cache cells)", s.Runs)
	}
}
