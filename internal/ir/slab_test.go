package ir_test

import (
	"runtime"
	"testing"

	"configwall/internal/core"
	"configwall/internal/ir"
)

// cloneKinds is what a Module.Clone of a few hundred values allocates at
// most: the Module, its slab, the op array, the storage for block arguments
// and result blocks, value lists, use lists, spilled attribute lists,
// regions and region lists, each once, and the value mapping, a Go map
// presized to the values it maps (its header, directory, table and groups).
// A kind the source has none of costs nothing.
const cloneKinds = 13

// allocsPerRun is testing.AllocsPerRun after a collection, so that no
// collection starts among the runs: one that does can count an allocation
// of the runtime's among the function's.
func allocsPerRun(runs int, f func()) float64 {
	runtime.GC()
	return testing.AllocsPerRun(runs, f)
}

// TestCloneAllocatesPerKindNotPerOp: Module.Clone counts its source and
// allocates each kind of storage once, so the tiled matmul at 16³ and at
// 64³ cost the same allocations at every depth of every pipeline. Only the
// value mapping grows with the module: a presized map of thousands of
// values splits into a table per thousand slots, so a clone of 12 000 ops
// stays far below one allocation per hundred ops.
func TestCloneAllocatesPerKindNotPerOp(t *testing.T) {
	for _, target := range []string{"gemmini", "opengemm"} {
		tgt, err := core.LookupTarget(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range core.Pipelines {
			var counts [2][]float64
			for i, n := range []int{16, 64} {
				m, err := tgt.MatmulMKN(n, n, n)
				if err != nil {
					t.Fatal(err)
				}
				pm := tgt.PassPipeline(p)
				for d := 0; d <= pm.Len(); d++ {
					if d > 0 {
						if err := pm.RunSpan(m, d-1, d); err != nil {
							t.Fatal(err)
						}
					}
					counts[i] = append(counts[i], allocsPerRun(5, func() { m.Clone() }))
				}
			}
			for d := range counts[0] {
				if a, b := counts[0][d], counts[1][d]; a != b || a > cloneKinds {
					t.Errorf("%s/%s after %d passes: a clone allocates %v times at 16³ and %v at 64³, want the same, at most %d",
						target, p, d, a, b, cloneKinds)
				}
			}
		}
	}

	small, large := chainModule(10), chainModule(3000)
	a := allocsPerRun(5, func() { small.Clone() })
	b := allocsPerRun(5, func() { large.Clone() })
	if ops := ir.CountOps(large); a > cloneKinds || b*100 > float64(ops) {
		t.Errorf("a clone of %d ops allocates %v times, of %d ops %v: want at most %d, and %d",
			ir.CountOps(small), a, ops, b, cloneKinds, ops/100)
	}
}

// chainModule builds a module of n links, each with every kind of storage
// a clone carves: a constant with three attributes, an op of four operands
// and two results, a value read several times, and a loop whose body
// argument is read twice.
func chainModule(n int) *ir.Module {
	m := ir.NewModule()
	fn := ir.NewOp("test.func", nil, nil)
	body := fn.AddRegion().Block()
	arg := body.AddArg(ir.I64)
	m.Append(fn)
	var one, two, three ir.Attribute = ir.IntAttr(1), ir.IntAttr(2), ir.IntAttr(3)
	b := ir.AtEnd(body)
	prev := arg
	for range n {
		c := b.Create("test.const", nil, []ir.Type{ir.I64})
		c.SetAttr("a", one)
		c.SetAttr("b", two)
		c.SetAttr("c", three)
		w := b.Create("test.wide", []*ir.Value{prev, c.Result(0), prev, arg}, []ir.Type{ir.I64, ir.I64})
		loop := b.Create("test.loop", []*ir.Value{w.Result(0)}, nil)
		lb := loop.AddRegion().Block()
		x := lb.AddArg(ir.I64)
		ir.AtEnd(lb).Create("test.use", []*ir.Value{x, x, w.Result(1)}, nil)
		prev = w.Result(0)
	}
	b.Create("test.return", []*ir.Value{prev}, nil)
	return m
}

// TestCloneStorageGrowsApart: the lists a clone carves out of one buffer
// are capped at their length, so a list that grows moves out and its
// neighbours in the buffer stay as they were. Every op of the clone gains
// an operand, and so a use on a value already read several times, and a
// fourth attribute; the source must still print as before, the clone as
// the source did plus the additions, and both keep use lists that match
// their operands.
func TestCloneStorageGrowsApart(t *testing.T) {
	src := chainModule(20)
	before := ir.PrintModule(src)
	clone := src.Clone()
	if got := ir.PrintModule(clone); got != before {
		t.Fatalf("clone prints differently:\n%s\nwant\n%s", got, before)
	}
	arg := clone.Block().First().Region(0).Block().Arg(0)
	uses := arg.NumUses()
	var d ir.Attribute = ir.IntAttr(4)
	var ops []*ir.Op
	clone.Walk(func(op *ir.Op) {
		if op != clone.Op() && op.Name() != "test.func" {
			ops = append(ops, op)
		}
	})
	for _, op := range ops {
		op.AddOperand(arg)
		op.SetAttr("d", d)
	}
	if got := ir.PrintModule(src); got != before {
		t.Errorf("growing the clone's lists changed the source")
	}
	if n := arg.NumUses(); n != uses+len(ops) {
		t.Errorf("the clone's function argument has %d uses, want %d", n, uses+len(ops))
	}
	for _, op := range ops {
		if k, a := op.AttrAt(op.NumAttrs() - 1); k != "d" || a != d {
			t.Fatalf("%s: last attribute %s = %v, want d = 4", op.Name(), k, a)
		}
	}
	for name, m := range map[string]*ir.Module{"source": src, "clone": clone} {
		checkUseLists(t, name, m)
	}
}

// checkUseLists fails t unless every operand slot of m is on its value's
// use list and every use of a value of m is an operand slot holding it.
func checkUseLists(t *testing.T, name string, m *ir.Module) {
	t.Helper()
	check := func(v *ir.Value) {
		for _, u := range v.Uses() {
			if u.Op.Operand(u.Index) != v {
				t.Fatalf("%s: a use of a value names operand %d of %s, which holds another", name, u.Index, u.Op.Name())
			}
		}
	}
	m.Walk(func(op *ir.Op) {
		for i := range op.NumOperands() {
			found := false
			for _, u := range op.Operand(i).Uses() {
				found = found || u.Op == op && u.Index == i
			}
			if !found {
				t.Fatalf("%s: operand %d of %s is missing from its value's use list", name, i, op.Name())
			}
		}
		for i := range op.NumResults() {
			check(op.Result(i))
		}
		for r := range op.NumRegions() {
			blk := op.Region(r).Block()
			for i := range blk.NumArgs() {
				check(blk.Arg(i))
			}
		}
	})
}

// TestSlabAllocations: a detached NewOp is one allocation of its own, and
// ops a Builder creates in a tree share the chunks of its root's slab: the
// first op of a tree makes the slab and a chunk of 4, and 60 ops take
// chunks of 4, 8, 16 and 32 and nothing else; the 61st takes a fifth chunk.
func TestSlabAllocations(t *testing.T) {
	if n := allocsPerRun(20, func() { ir.NewOp("test.op", nil, []ir.Type{ir.I64}) }); n != 1 {
		t.Errorf("a detached NewOp allocates %v times, want 1", n)
	}
	build := func(ops int) float64 {
		return allocsPerRun(20, func() {
			m := ir.NewModule()
			b := ir.AtEnd(m.Block())
			for range ops {
				b.Create("test.op", nil, []ir.Type{ir.I64})
			}
		})
	}
	empty := build(0)
	for _, tc := range []struct{ ops, want int }{{1, 2}, {4, 2}, {5, 3}, {60, 5}, {61, 6}} {
		if got := build(tc.ops) - empty; got != float64(tc.want) {
			t.Errorf("%d ops built into a module: %v allocations, want %d", tc.ops, got, tc.want)
		}
	}
}

// TestSlabDeadShare bounds what slabs cost in memory: an op erased from a
// tree keeps its slot until the tree dies, so the slots of the slabs the
// ops of a cell's final module come from hold more than those ops. Over
// the 200 runnable cells at n = 8…512 the dead share — slots that hold no
// op of the final module, erased ops and unused chunk tails alike — is
// the measured 0.613 plus a margin. Five sixths of the dead slots held ops
// the passes erased or moved out; the rest are unused chunk tails.
func TestSlabDeadShare(t *testing.T) {
	const bound = 0.65
	sizes := []int{8, 16, 24, 32, 48, 64, 96, 128, 256, 512}
	var live, slots, cells int
	worst, worstCell := 0.0, ""
	for _, tn := range []string{"gemmini", "opengemm"} {
		tg, err := core.LookupTarget(tn)
		if err != nil {
			t.Fatal(err)
		}
		for _, wn := range []string{core.WorkloadMatmul, core.WorkloadRectMM, core.WorkloadMatvec} {
			w, err := core.LookupWorkload(wn)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range core.Sweep([]string{tn}, []string{wn}, core.Pipelines, core.SupportedSizes(tg, w, sizes)) {
				c, err := core.Compile(tg, w, e.Pipeline, e.N)
				if err != nil {
					t.Fatal(err)
				}
				l, s := ir.SlabSlots(c.Module)
				live, slots, cells = live+l, slots+s, cells+1
				if dead := 1 - float64(l)/float64(s); dead > worst {
					worst, worstCell = dead, e.String()
				}
			}
		}
	}
	dead := 1 - float64(live)/float64(slots)
	t.Logf("%d cells: %d of %d slab slots hold an op of the final module, dead share %.3f (worst %s, %.3f)",
		cells, live, slots, dead, worstCell, worst)
	if cells != 200 {
		t.Errorf("%d runnable cells, want 200", cells)
	}
	if dead > bound {
		t.Errorf("dead share of slab slots %.3f, bound %.2f", dead, bound)
	}
}
