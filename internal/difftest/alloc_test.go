package difftest_test

import (
	"runtime"
	"testing"

	"configwall/internal/difftest"
	"configwall/internal/irgen"
)

// TestCheckAllocationBudget is the oracle's allocation ratchet: one full
// Check (static pre-oracle, every pipeline, every engine) of one named
// program per target, held on two axes. Counts repeat to within two
// allocations and bytes to within a fraction of a percent here, so like
// core.TestCellAllocationBudget this is a ratchet, not a benchmark: budgets
// are the measured figures + 10% for toolchain drift.
//
// The count holds one module clone per pipeline: the pre-lowering facts are
// read off the live module between two halves of the pipeline (runPasses),
// and a probe that goes back through PassManager.CheckEach — a clone before
// every pass, which is how the parent of the PR that added this test measured
// 43 169 and 29 172 — fails it. So does a map of group mates built per
// accfg.setup in internal/analysis (14 418 for gemmini before they were
// built once per accel.Port). So does an op that is more than one
// allocation, a field state that is a map or is copied per launch, or a CSE
// key that is a string of its own: 11 404 and 7 157 before the IR core kept
// operands, results, attributes and first uses inline and the analysis kept
// sorted, shared field states.
//
// The bytes hold one arena per check: a 1 MiB memory per engine run and a
// full-image snapshot of each, eight of both per program, change the count by
// a few dozen but the bytes from 3.7 and 3.0 MB to 18.5 and 17.8 MB (which is
// what the parent of the PR that added this axis measured).
func TestCheckAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		target string
		allocs float64
		bytes  uint64
	}{
		{"gemmini", 4235, 2_995_000},  // measured 3 850 and 2 722 k
		{"opengemm", 3097, 2_980_000}, // measured 2 815 and 2 708 k
	} {
		tgt, prof := targetAndProfile(t, tc.target)
		prog, err := irgen.Generate(prof, irgen.DeriveSeed(1, tc.target, 0))
		if err != nil {
			t.Fatal(err)
		}
		check := func() {
			if rep := difftest.Check(tgt, prog, difftest.Options{}); rep.Invalid || rep.Diverged() {
				t.Fatalf("%s: invalid=%v divergences=%v", tc.target, rep.Invalid, rep.Divergences)
			}
		}
		allocs := testing.AllocsPerRun(10, check)

		// Bytes: TotalAlloc around ten more checks on this goroutine (no test
		// of this package runs in parallel with it).
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			check()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs

		t.Logf("%s: %.0f allocations, %d bytes per check", tc.target, allocs, bytes)
		if allocs > tc.allocs {
			t.Errorf("%s: %.0f allocations per check, budget %.0f", tc.target, allocs, tc.allocs)
		}
		if bytes > tc.bytes {
			t.Errorf("%s: %d bytes allocated per check, budget %d", tc.target, bytes, tc.bytes)
		}
	}
}
