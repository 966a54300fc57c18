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
// The count holds one module clone per pipeline and each shared pass run
// once per program (the pass tree): the pre-lowering facts are read off the
// live module between two parts of the pipeline, and a probe that goes back
// through PassManager.CheckEach — a clone before every pass, which is how the
// parent of the PR that added this test measured 43 169 and 29 172 — fails
// it. So does a map of group mates built per accfg.setup in
// internal/analysis (14 418 for gemmini before they were built once per
// accel.Port). So does an op that is more than one allocation, a field state
// that is a map or is copied per launch, or a CSE key that is a string of
// its own: 11 404 and 7 157 before the IR core kept operands, results,
// attributes and first uses inline and the analysis kept sorted, shared
// field states. With every pipeline running its shared opening passes on
// its own clone, the parent of the PR that added the pass tree measured
// 3 850 and 2 815.
//
// The bytes hold the check's scratch reused and only the baseline's image
// copied out: 1.00 and 0.68 MB here. With a sync.Pool of sandboxes (emptied
// by every GC), a fresh trace per run and every run's image copied, the
// parent of the PR that made the scratch a free list measured 1.53 and
// 1.34 MB, and 3 545 and 2 588 allocations with a path enumerator that
// threw away every run reaching an undecided branch. 2.37 and 2.39 MB is an
// arena per check or each image copied up to its last dirty page, and 18.5
// and 17.8 MB an arena and a full-image snapshot per engine run. A GC does
// not empty the free list, so the budget has no slack for a sandbox made
// again between two checks: one more 1 MiB sandbox per check fails it.
func TestCheckAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		target string
		allocs float64
		bytes  uint64
	}{
		{"gemmini", 3556, 1_101_000}, // measured 3 232 and 1 000 k
		{"opengemm", 2662, 746_000},  // measured 2 420 and 677 k
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
