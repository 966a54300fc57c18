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

// TestOpIsOneAllocation holds the IR core's layout (DESIGN.md §1, "One
// allocation per op"): an op whose operands, results and attributes fit the
// inline room is the Op and nothing else — no operand slice, result block,
// result slice or attribute map — and the first use of a value lives in the
// value. An op that outgrows the room spills each list once.
func TestOpIsOneAllocation(t *testing.T) {
	m := ir.NewModule()
	b := ir.AtEnd(m.Block())
	a := b.Create("test.source", nil, []ir.Type{ir.I64}).Result(0)
	c := b.Create("test.source", nil, []ir.Type{ir.I64}).Result(0)
	d := b.Create("test.source", nil, []ir.Type{ir.I1}).Result(0)
	// Boxed once here: turning an attribute value into an ir.Attribute is
	// the caller's allocation, not the op's.
	var value, pred ir.Attribute = ir.IntAttr(7), ir.StringAttr{Value: "slt"}
	build := func(name string, operands []*ir.Value, results []ir.Type, attrs int) *ir.Op {
		op := ir.NewOp(name, operands, results)
		if attrs > 0 {
			op.SetAttr("value", value)
		}
		if attrs > 1 {
			op.SetAttr("predicate", pred)
		}
		return op
	}
	for _, tc := range []struct {
		name     string
		operands []*ir.Value
		results  []ir.Type
		attrs    int
		want     float64
	}{
		{"arith.constant", nil, []ir.Type{ir.I64}, 1, 1},
		{"arith.addi", []*ir.Value{a, c}, []ir.Type{ir.I64}, 0, 1},
		{"arith.cmpi", []*ir.Value{a, c}, []ir.Type{ir.I1}, 2, 1},
		{"arith.select", []*ir.Value{d, a, c}, []ir.Type{ir.I64}, 0, 1},
		{"test.sink", []*ir.Value{a}, nil, 0, 1},
		// Four operands and two results spill the operand list and the
		// result block with its slice.
		{"test.wide", []*ir.Value{d, a, c, a}, []ir.Type{ir.I64, ir.I64}, 0, 4},
	} {
		if n := testing.AllocsPerRun(20, func() {
			build(tc.name, tc.operands, tc.results, tc.attrs).Erase()
		}); n != tc.want {
			t.Errorf("%s with %d operands, %d results, %d attributes: %v allocations, want %v",
				tc.name, len(tc.operands), len(tc.results), tc.attrs, n, tc.want)
		}
	}

	// A clone is one allocation too.
	cmp := build("arith.cmpi", []*ir.Value{a, c}, []ir.Type{ir.I1}, 2)
	mapping := map[*ir.Value]*ir.Value{}
	if n := testing.AllocsPerRun(20, func() {
		cmp.Clone(mapping).Erase()
		delete(mapping, cmp.Result(0))
	}); n != 1 {
		t.Errorf("Op.Clone of a compare: %v allocations, want 1", n)
	}
}
