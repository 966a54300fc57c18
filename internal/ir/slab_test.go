package ir_test

import (
	"runtime"
	"runtime/debug"
	"sync"
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
// stays far below one allocation per hundred ops. The small chain reads its
// argument 40 times, more than a use chunk holds: that list is carved from
// the counted first chunk too.
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

	small, large := chainModule(40), chainModule(3000)
	a := allocsPerRun(5, func() { small.Clone() })
	b := allocsPerRun(5, func() { large.Clone() })
	t.Logf("a clone of %d ops: %v allocations, of %d ops: %v", ir.CountOps(small), a, ir.CountOps(large), b)
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
		for i := range v.NumUses() {
			if u := v.Use(i); u.Op.Operand(u.Index) != v {
				t.Fatalf("%s: a use of a value names operand %d of %s, which holds another", name, u.Index, u.Op.Name())
			}
		}
	}
	m.Walk(func(op *ir.Op) {
		for i := range op.NumOperands() {
			v, found := op.Operand(i), false
			for j := range v.NumUses() {
				found = found || v.Use(j) == ir.Use{Op: op, Index: i}
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
//
// Use chunks hold more dead entries than live ones: a list that grows
// leaves its old entries behind until a list of their size takes them, and
// a value the passes erase or replace leaves its list. Their dead share is
// the measured 0.786 plus a margin: 180 entries (2.9 kB) per cell, of which
// 39 hold a use.
func TestSlabDeadShare(t *testing.T) {
	const bound, useBound = 0.65, 0.82
	sizes := []int{8, 16, 24, 32, 48, 64, 96, 128, 256, 512}
	var live, slots, useLive, useSlots, cells int
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
				l, s = ir.UseSlots(c.Module)
				useLive, useSlots = useLive+l, useSlots+s
			}
		}
	}
	dead := 1 - float64(live)/float64(slots)
	t.Logf("%d cells: %d of %d slab slots hold an op of the final module, dead share %.3f (worst %s, %.3f)",
		cells, live, slots, dead, worstCell, worst)
	useDead := 1 - float64(useLive)/float64(useSlots)
	t.Logf("%d of %d use-chunk entries hold a use of the final module, dead share %.3f", useLive, useSlots, useDead)
	if cells != 200 {
		t.Errorf("%d runnable cells, want 200", cells)
	}
	if dead > bound {
		t.Errorf("dead share of slab slots %.3f, bound %.2f", dead, bound)
	}
	if useDead > useBound {
		t.Errorf("dead share of use-chunk entries %.3f, bound %.2f", useDead, useBound)
	}
}

// TestUseListsGrowFromSlab: a use list that outgrows its value's inline
// room moves into a chunk of 32 uses carved from the slab of the tree its
// new user is built into, so the lists of a tree share chunks where they
// used to be one heap list each per doubling.
func TestUseListsGrowFromSlab(t *testing.T) {
	// build makes a module of n sources and n*reads sinks, each sink
	// reading its source once, or nothing when read is false.
	build := func(n, reads int, read bool) *ir.Module {
		m := ir.NewModule()
		b := ir.AtEnd(m.Block())
		for range n {
			v := []*ir.Value{b.Create("test.source", nil, []ir.Type{ir.I64}).Result(0)}
			if !read {
				v = nil
			}
			for range reads {
				b.Create("test.sink", v, nil)
			}
		}
		return m
	}
	// A collection during a run may count an allocation of the runtime's
	// under -race, and the side that allocates more collects more often,
	// so the measurements run with the collector off.
	growth := func(n, reads int) float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return allocsPerRun(10, func() { build(n, reads, true) }) - allocsPerRun(10, func() { build(n, reads, false) })
	}
	// One value read by 1 000 sinks: its lists of 2, 4, 8 and 16 share a
	// chunk, the list of 32 takes the next, and each list past a chunk is
	// one of its own (64 … 1 024): 7 allocations, where heap appends took
	// one per list, 10.
	if got := growth(1, 1000); got != 7 {
		t.Errorf("a value read 1 000 times grows its use list in %v allocations, want 7", got)
	}
	// A thousand values read three times each: lists of 2 and 4, where
	// every list of 2 but the first is the spare the value before left
	// when it grew to 4. So each value carves 4 entries, eight values to a
	// chunk of 32: 126 chunks for what took 2 000 lists.
	if got := growth(1000, 3); got != 126 {
		t.Errorf("1 000 values read 3 times grow their use lists in %v allocations, want 126", got)
	}

	// ReplaceAllUsesWith onto a value already read appends the moved uses
	// after its own, in order, in one list of the size it needs; onto a
	// value read by nothing, it hands the list over as it is.
	const runs = 10
	type fixture struct {
		m    *ir.Module
		v, w *ir.Value
		own  []*ir.Op
	}
	setup := func(wReads int) []fixture {
		fxs := make([]fixture, runs+1) // AllocsPerRun calls once more to warm up
		for i := range fxs {
			m := build(1, 1000, true)
			b := ir.AtEnd(m.Block())
			fx := fixture{m: m, v: m.Block().First().Result(0)}
			fx.w = b.Create("test.source", nil, []ir.Type{ir.I64}).Result(0)
			for range wReads {
				fx.own = append(fx.own, b.Create("test.sink", []*ir.Value{fx.w}, nil))
			}
			fxs[i] = fx
		}
		return fxs
	}
	for _, tc := range []struct {
		wReads int
		want   float64
	}{{3, 1}, {0, 0}} {
		fxs := setup(tc.wReads)
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			fxs[next].v.ReplaceAllUsesWith(fxs[next].w)
			next++
		})
		if got != tc.want {
			t.Errorf("RAUW of 1 000 uses onto a value read %d times: %v allocations, want %v", tc.wReads, got, tc.want)
		}
		fx := fxs[0]
		if fx.v.NumUses() != 0 || fx.w.NumUses() != 1000+tc.wReads {
			t.Fatalf("after RAUW: %d and %d uses, want 0 and %d", fx.v.NumUses(), fx.w.NumUses(), 1000+tc.wReads)
		}
		for i, op := range fx.own {
			if u := fx.w.Use(i); u.Op != op {
				t.Fatalf("use %d of the value replaced into is %s, want its own reader %d first", i, u.Op.Name(), i)
			}
		}
		sink := fx.m.Block().First().Next()
		for i := tc.wReads; i < fx.w.NumUses(); i++ {
			if u := fx.w.Use(i); u.Op != sink {
				t.Fatalf("use %d after RAUW is not the %d-th moved reader", i, i-tc.wReads)
			}
			sink = sink.Next()
		}
		checkUseLists(t, "after RAUW", fx.m)
	}
}

// TestClonesGrowUseListsApart is for the race detector: a use list grows
// only into a slab its user's tree owns, and a tree belongs to one
// goroutine at a time. Two goroutines each clone one shared snapshot and
// grow use lists in their copy through AddOperand, SetOperand and
// ReplaceAllUsesWith; the copies must come out alike and the snapshot
// unchanged.
func TestClonesGrowUseListsApart(t *testing.T) {
	snap := chainModule(40)
	before := ir.PrintModule(snap)
	var wg sync.WaitGroup
	var printed [2]string
	for g := range printed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := snap.Clone()
			body := m.Block().First().Region(0).Block()
			var wides []*ir.Op
			for op := body.First(); op != nil; op = op.Next() {
				if op.Name() == "test.wide" {
					wides = append(wides, op)
				}
			}
			for i, w := range wides {
				w.AddOperand(w.Operand(1))
				w.SetOperand(2, wides[i/2].Result(0))
				w.Result(1).ReplaceAllUsesWith(body.Arg(0))
			}
			checkUseLists(t, "clone", m)
			printed[g] = ir.PrintModule(m)
		}()
	}
	wg.Wait()
	if printed[0] != printed[1] {
		t.Errorf("two clones grown alike print differently")
	}
	if got := ir.PrintModule(snap); got != before {
		t.Errorf("growing the clones' use lists changed the snapshot")
	}
}

// TestMovedOpGrowsNoListIntoItsOldSlab is for the race detector: an op
// that left a tree keeps its slot in that tree's slab, but is a root of its
// own that owns no slab, so lists it grows come off the heap and not from
// the slab its old tree's goroutine goes on building into. Each side reads
// fresh values twice, carving a list of two per value. Both sides are alive
// before either starts, so the detector tells them apart; it still misses
// some interleavings, so the test runs a few rounds.
func TestMovedOpGrowsNoListIntoItsOldSlab(t *testing.T) {
	const rounds, values = 4, 500
	for range rounds {
		m := ir.NewModule()
		b := ir.AtEnd(m.Block())
		moved := b.Create("test.sink", nil, nil)
		moved.Remove()
		var ready, done sync.WaitGroup
		ready.Add(2)
		done.Add(2)
		go func() {
			defer done.Done()
			ready.Done()
			ready.Wait()
			for range values {
				x := ir.NewOp("test.source", nil, []ir.Type{ir.I64}).Result(0)
				moved.AddOperand(x)
				moved.AddOperand(x)
			}
		}()
		go func() {
			defer done.Done()
			ready.Done()
			ready.Wait()
			for range values {
				src := []*ir.Value{b.Create("test.source", nil, []ir.Type{ir.I64}).Result(0)}
				b.Create("test.sink", src, nil)
				b.Create("test.sink", src, nil)
			}
		}()
		done.Wait()
		if n := moved.NumOperands(); n != 2*values {
			t.Fatalf("the moved op has %d operands, want %d", n, 2*values)
		}
		checkUseLists(t, "the module built beside the moved op", m)
	}
}
