package difftest

// Internal tests for the simulator-engine cross-check: equalExecutions is
// the comparison at the heart of the standing fuzz invariant, so its
// discrimination is pinned directly.

import (
	"strings"
	"testing"

	"configwall/internal/accel"
	"configwall/internal/core"
	"configwall/internal/irgen"
	"configwall/internal/sim"
	"configwall/internal/trace"
)

func cleanExecution() Execution {
	return Execution{
		Counters: sim.Counters{Cycles: 100, HostInstrs: 40, HostCycles: 80},
		Launches: []accel.Launch{{Ops: 512, Cycles: 30}},
		Mem:      []byte{1, 2, 3},
		TraceSummary: trace.Summary{
			HostExec: 70, HostConfig: 10, AccelBusy: 30,
		},
	}
}

func TestEqualExecutionsDiscrimination(t *testing.T) {
	if err := equalExecutions(cleanExecution(), cleanExecution(), "fast"); err != nil {
		t.Fatalf("identical executions reported unequal: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Execution)
		want   string
	}{
		{"counters", func(e *Execution) { e.Cycles++ }, "counters"},
		{"launch count", func(e *Execution) { e.Launches = nil }, "launch count"},
		{"launch effect", func(e *Execution) { e.Launches[0].Ops++ }, "launch 0"},
		{"memory", func(e *Execution) { e.Mem[1] ^= 0xff }, "memory at 0x1"},
		{"trace summary", func(e *Execution) { e.TraceSummary.HostExec-- }, "trace summary"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fast := cleanExecution()
			tc.mutate(&fast)
			err := equalExecutions(cleanExecution(), fast, "fast")
			if err == nil {
				t.Fatal("divergent executions reported equal")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the divergent observable %q", err, tc.want)
			}
		})
	}

	// Images end where their trailing zeros were dropped, so they differ in
	// length whenever one side stored higher up than the other. A non-zero
	// byte beyond the shorter image's end is a difference, in either order,
	// and reads as zero on the short side; a tail of zeros nobody trimmed is
	// not one — the comparison owns the canonical form, not the producer.
	withTail := func(tail ...byte) Execution {
		e := cleanExecution()
		e.Mem = append(e.Mem, tail...)
		return e
	}
	for _, tc := range []struct {
		name     string
		ref, got Execution
		engine   string // "" when the two must compare equal
		semantic string
	}{
		{"byte past the end of ref", cleanExecution(), withTail(0, 0x7f),
			"engines disagree on memory at 0x4: ref 0x00, fast 0x7f", "memory differs at 0x4: base 0x00, optimized 0x7f"},
		{"byte past the end of got", withTail(0, 0x7f), cleanExecution(),
			"engines disagree on memory at 0x4: ref 0x7f, fast 0x00", "memory differs at 0x4: base 0x7f, optimized 0x00"},
		{"untrimmed zero tail on got", cleanExecution(), withTail(0, 0, 0), "", ""},
		{"untrimmed zero tail on ref", withTail(0, 0, 0), cleanExecution(), "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := equalExecutions(tc.ref, tc.got, "fast")
			divs := compare(core.Target{}, core.DedupOnly, tc.ref, tc.got)
			if tc.engine == "" {
				if err != nil || len(divs) != 0 {
					t.Fatalf("images equal up to trailing zeros reported unequal: %v, %v", err, divs)
				}
				return
			}
			if err == nil || err.Error() != tc.engine {
				t.Errorf("equalExecutions = %v, want %q", err, tc.engine)
			}
			if len(divs) != 1 || divs[0].Kind != KindMemory || divs[0].Detail != tc.semantic {
				t.Errorf("compare = %v, want one memory divergence %q", divs, tc.semantic)
			}
		})
	}
}

// TestEngineCrossCheckIsStanding: the default Options run every pipeline's
// compiled program on both engines — provable from the outside because
// trace recording (and therefore a non-empty base TraceSummary) happens
// exactly when the cross-check path is taken, and because a seeded
// campaign slice across both targets stays divergence-free.
func TestEngineCrossCheckIsStanding(t *testing.T) {
	for _, targetName := range core.TargetNames() {
		prof, err := irgen.ProfileFor(targetName)
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := core.LookupTarget(targetName)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			seed := irgen.DeriveSeed(11, targetName, i)
			prog, err := irgen.Generate(prof, seed)
			if err != nil {
				t.Fatal(err)
			}
			rep := Check(tgt, prog, Options{})
			if rep.Invalid {
				t.Fatalf("%s seed %d: invalid baseline: %s", targetName, seed, rep.InvalidReason)
			}
			if rep.Diverged() {
				t.Fatalf("%s seed %d: divergences with engine cross-check on: %v", targetName, seed, rep.Divergences)
			}
			if rep.Base.TraceSummary == (trace.Summary{}) {
				t.Fatalf("%s seed %d: base trace summary empty — cross-check path did not record", targetName, seed)
			}
		}
	}
}

// TestSkipEngineCrossCheck: Execute with crossCheck off — exactly the call
// the benchmark's dynamic-only probe makes — must still produce the full
// reference observation, on the cheap path.
func TestSkipEngineCrossCheck(t *testing.T) {
	prof, err := irgen.ProfileFor("opengemm")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := core.LookupTarget("opengemm")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := irgen.Generate(prof, irgen.DeriveSeed(11, "opengemm", 0))
	if err != nil {
		t.Fatal(err)
	}
	plain, kind, err := Execute(tgt, prog.Module, prog, tgt.PassPipeline(core.AllOptimizations), nil, false)
	if err != nil {
		t.Fatalf("clean program failed with cross-check disabled: %s: %v", kind, err)
	}
	// The opt-out must actually take the cheap path: no trace recording.
	if plain.TraceSummary != (trace.Summary{}) {
		t.Errorf("TraceSummary populated with cross-check disabled: %+v", plain.TraceSummary)
	}
	// Everything else is the observation the cross-checked run reports.
	checked, kind, err := Execute(tgt, prog.Module, prog, tgt.PassPipeline(core.AllOptimizations), nil, true)
	if err != nil {
		t.Fatalf("clean program failed with cross-check enabled: %s: %v", kind, err)
	}
	checked.TraceSummary = trace.Summary{}
	if err := equalExecutions(checked, plain, "ref without cross-check"); err != nil {
		t.Errorf("cross-check changes the reference observation: %v", err)
	}
}
