package core

import (
	"testing"
)

// TestCellAllocationBudget is the whole-cell allocation ratchet (DESIGN.md
// §1, "The IR core: iterate, don't copy"): build, pass pipeline with
// per-pass verification, codegen, simulate and golden-verify one cold cell.
// Budgets are the measured counts + 10%. Allocation counts repeat to 0.1%
// here, so the margin is for toolchain drift, not noise: a snapshot in a
// per-op loop, a map copy per region or a fmt call per op costs hundreds of
// allocations and fails this test (the parent of the PR that added it
// measured 7 179 and 2 747), and so does an op that is more than one
// allocation again — an operand slice, a result block or an attribute map
// per op took 1 516 and 1 425 — and so do ops built one allocation each
// instead of from their tree's slab: 670 and 522 before slabs — and so does
// codegen growing unsized buffers, formatting a name per label and keeping
// labels in maps, and a pass list boxing every pass per cell: 584 and 370
// before codegen emitted once into presized storage — and so does an
// attribute boxed per constant, CSR write and field name, CSE spelling a
// key per pure op into maps made per run, or a pass list building the
// lowering and overlap passes per cell: 519 and 312 before interning — and
// so does a use list grown by append, one heap list per doubling per value,
// a snapshot of a use list, or a lowering that grows its work lists: 354
// and 158 before use lists grew into their tree's slab. What runs
// once per pass is too small to show here; cwlint's hot-path rules hold
// those functions.
func TestCellAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		cell   Experiment
		budget float64
	}{
		{Experiment{Target: "opengemm", Workload: "matmul", Pipeline: AllOptimizations, N: 64}, 319}, // measured 290
		{Experiment{Target: "gemmini", Workload: "matmul", Pipeline: Baseline, N: 16}, 133},          // measured 121
	} {
		allocs := testing.AllocsPerRun(20, func() {
			res, err := RunExperiment(tc.cell, RunOptions{})
			if err != nil || !res.Verified {
				t.Fatalf("%s: verified=%v err=%v", tc.cell, res.Verified, err)
			}
		})
		t.Logf("%s: %.0f allocations per cell", tc.cell, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocations per cell, budget %.0f", tc.cell, allocs, tc.budget)
		}
	}
}
