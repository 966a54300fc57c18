package difftest_test

import (
	"testing"

	"configwall/internal/difftest"
	"configwall/internal/irgen"
)

// TestCheckAllocationBudget is the oracle's allocation ratchet: one full
// Check (static pre-oracle, every pipeline, every engine) of one named
// program per target. Counts repeat to within two allocations here, so like
// core.TestCellAllocationBudget this is a ratchet, not a benchmark: budgets
// are the measured counts + 10% for toolchain drift. What it holds is one
// module clone per pipeline: the pre-lowering facts are read off the live
// module between two halves of the pipeline (runPasses), and a probe that
// goes back through PassManager.CheckEach — a clone before every pass, which
// is how the parent of the PR that added this test measured 43 169 and
// 29 172 — fails it.
func TestCheckAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		target string
		budget float64
	}{
		{"gemmini", 16054}, // measured 14 595
		{"opengemm", 8424}, // measured 7 659
	} {
		tgt, prof := targetAndProfile(t, tc.target)
		prog, err := irgen.Generate(prof, irgen.DeriveSeed(1, tc.target, 0))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if rep := difftest.Check(tgt, prog, difftest.Options{}); rep.Invalid || rep.Diverged() {
				t.Fatalf("%s: invalid=%v divergences=%v", tc.target, rep.Invalid, rep.Divergences)
			}
		})
		t.Logf("%s: %.0f allocations per check", tc.target, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocations per check, budget %.0f", tc.target, allocs, tc.budget)
		}
	}
}
