package ir_test

import (
	"testing"

	"configwall/internal/core"
	"configwall/internal/ir"
)

// The IR core iterates its own data instead of copying it (DESIGN.md §1);
// these ratchets hold the read paths every pass boundary runs to zero
// allocations. Allocation counts are deterministic, so the test is exact
// and costs no wall time. A snapshot accessor, a map or a fmt call creeping
// back into one of them fails here before it shows in the benchmark.

func tiledMatmul(t *testing.T, target string) (core.Target, *ir.Module) {
	t.Helper()
	tgt, err := core.LookupTarget(target)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tgt.MatmulMKN(64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	return tgt, m
}

func TestVerifyAllocatesNothing(t *testing.T) {
	for _, target := range []string{"gemmini", "opengemm"} {
		tgt, m := tiledMatmul(t, target)
		check := func(when string, m *ir.Module) {
			t.Helper()
			if n := testing.AllocsPerRun(10, func() {
				if err := ir.Verify(m); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s, %s: ir.Verify allocates %v times on a clean module, want 0", target, when, n)
			}
		}
		check("as built", m)
		// And on every shape the full pipeline puts the module through:
		// state chains, loop-carried states, lowered command streams.
		pm := tgt.PassPipeline(core.AllOptimizations)
		pm.CheckEach = func(pass string, _, after *ir.Module) error {
			check("after "+pass, after)
			return nil
		}
		if err := pm.Run(m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadOnlyTraversalAllocatesNothing(t *testing.T) {
	_, m := tiledMatmul(t, "opengemm")
	if n := testing.AllocsPerRun(10, func() { ir.CountOps(m) }); n != 0 {
		t.Errorf("ir.CountOps allocates %v times, want 0", n)
	}
	ops, withRegions := 0, 0
	if n := testing.AllocsPerRun(10, func() {
		m.Walk(func(op *ir.Op) {
			ops++
			if op.NumRegions() > 0 {
				withRegions++
			}
		})
	}); n != 0 {
		t.Errorf("a read-only ir.Walk allocates %v times, want 0", n)
	}
	if ops == 0 || withRegions < 3 {
		t.Fatalf("walk saw %d ops, %d with regions: not the nested module this test is about", ops, withRegions)
	}

	// IsBefore on a numbered block is a compare.
	body := m.Funcs()[0].Region(0).Block()
	first, last := body.First(), body.Last()
	if !first.IsBefore(last) {
		t.Fatal("first op not before last")
	}
	if n := testing.AllocsPerRun(10, func() {
		if !first.IsBefore(last) || last.IsBefore(first) {
			t.Fatal("IsBefore changed its mind")
		}
	}); n != 0 {
		t.Errorf("Op.IsBefore allocates %v times, want 0", n)
	}
}
