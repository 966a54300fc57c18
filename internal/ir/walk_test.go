package ir_test

import (
	"strings"
	"testing"

	"configwall/internal/ir"
)

// walkFixture builds holder{ a{ a1 a2 } b c d } and returns the ops by name.
func walkFixture() (holder *ir.Op, ops map[string]*ir.Op) {
	ops = map[string]*ir.Op{}
	mk := func(name string, into *ir.Block) *ir.Op {
		op := ir.NewOp("test."+name, nil, nil)
		into.Append(op)
		ops[name] = op
		return op
	}
	holder = ir.NewOp("test.holder", nil, nil)
	top := holder.AddRegion().Block()
	inner := mk("a", top).AddRegion().Block()
	mk("a1", inner)
	mk("a2", inner)
	mk("b", top)
	mk("c", top)
	mk("d", top)
	return holder, ops
}

// TestWalkContract pins what Walk and WalkBlock visit when the callback
// mutates the IR under them — the contract documented on ir.Walk. Each case
// acts once, on the first visit of op "at". Where the old snapshot-based
// walk behaved differently the case says so.
func TestWalkContract(t *testing.T) {
	fresh := func(name string) *ir.Op { return ir.NewOp("test."+name, nil, nil) }
	cases := []struct {
		name string
		at   string
		act  func(ops map[string]*ir.Op)
		want string // visit order, or "panic"
	}{
		{"read-only", "b", func(map[string]*ir.Op) {}, "a a1 a2 b c d"},
		{"erase the visited op", "b", func(ops map[string]*ir.Op) { ops["b"].Erase() }, "a a1 a2 b c d"},
		{"erase the visited op and its region", "a", func(ops map[string]*ir.Op) { ops["a"].Erase() }, "a b c d"},
		{"insert before the visited op", "b", func(ops map[string]*ir.Op) { ir.Before(ops["b"]).Insert(fresh("x")) }, "a a1 a2 b c d"},
		{"insert after the visited op", "b", func(ops map[string]*ir.Op) { ir.After(ops["b"]).Insert(fresh("x")) }, "a a1 a2 b c d"},
		{"append to the visited op's region", "a", func(ops map[string]*ir.Op) { ops["a"].Region(0).Block().Append(fresh("x")) }, "a a1 a2 x b c d"},
		{"move the visited op behind the walk", "c", func(ops map[string]*ir.Op) { ops["c"].MoveBefore(ops["a"]) }, "a a1 a2 b c d"},
		// The snapshot walk visited b once; following the list meets it again.
		{"move the visited op ahead of the walk", "b", func(ops map[string]*ir.Op) { ops["b"].MoveAfter(ops["d"]) }, "a a1 a2 b c d b"},
		{"move the visited op into another block", "b", func(ops map[string]*ir.Op) { ops["b"].MoveBefore(ops["a1"]) }, "a a1 a2 b c d"},
		// The snapshot walk still visited the erased d, detached.
		{"erase a later sibling", "b", func(ops map[string]*ir.Op) { ops["d"].Erase() }, "a a1 a2 b c"},
		{"erase a later sibling from inside a region", "a1", func(ops map[string]*ir.Op) { ops["c"].Erase() }, "a a1 a2 b d"},
		{"move a later sibling behind the walk", "b", func(ops map[string]*ir.Op) { ops["d"].MoveBefore(ops["a"]) }, "a a1 a2 b c"},
		// The two cases a naive "read next first" walk gets silently wrong:
		// an unlinked successor has no next, which would end the block.
		{"erase the successor", "b", func(ops map[string]*ir.Op) { ops["c"].Erase() }, "panic"},
		{"move the successor out of the block", "b", func(ops map[string]*ir.Op) { ops["c"].MoveBefore(ops["a1"]) }, "panic"},
		{"erase an ancestor's successor", "a2", func(ops map[string]*ir.Op) { ops["b"].Erase() }, "panic"},
		// Forbidden and not detected: the walk follows c to the end of the
		// block and never sees d. (The snapshot walk gave a a1 a2 b c d.)
		{"move the successor within the block", "b", func(ops map[string]*ir.Op) { ops["c"].MoveAfter(ops["d"]) }, "a a1 a2 b c"},
	}
	walkers := []struct {
		name string
		walk func(holder *ir.Op, fn func(*ir.Op))
	}{
		{"Walk", func(holder *ir.Op, fn func(*ir.Op)) {
			ir.Walk(holder, func(op *ir.Op) {
				if op != holder {
					fn(op)
				}
			})
		}},
		{"WalkBlock", func(holder *ir.Op, fn func(*ir.Op)) { ir.WalkBlock(holder.Region(0).Block(), fn) }},
	}
	for _, tc := range cases {
		for _, w := range walkers {
			t.Run(tc.name+"/"+w.name, func(t *testing.T) {
				holder, ops := walkFixture()
				var visited []string
				acted := false
				got := func() (got string) {
					defer func() {
						if recover() != nil {
							got = "panic"
						}
					}()
					w.walk(holder, func(op *ir.Op) {
						name := strings.TrimPrefix(op.Name(), "test.")
						visited = append(visited, name)
						if name == tc.at && !acted {
							acted = true
							tc.act(ops)
						}
					})
					return strings.Join(visited, " ")
				}()
				if got != tc.want {
					t.Errorf("visited %q, want %q", got, tc.want)
				}
			})
		}
	}
}

// TestIsBeforeTracksEdits holds the order index to the list through every
// kind of edit: after each one, IsBefore must agree with a scan for every
// pair of ops in the block.
func TestIsBeforeTracksEdits(t *testing.T) {
	holder, ops := walkFixture()
	blk := holder.Region(0).Block()
	check := func(after string) {
		t.Helper()
		list := blk.Ops()
		for i, x := range list {
			for j, y := range list {
				if got := x.IsBefore(y); got != (i < j) {
					t.Fatalf("after %s: %s.IsBefore(%s) = %v, positions %d and %d", after, x.Name(), y.Name(), got, i, j)
				}
			}
		}
	}
	check("building")
	x := ir.Before(ops["b"]).Insert(ir.NewOp("test.x", nil, nil))
	check("insert before")
	ops["d"].MoveBefore(ops["a"])
	check("move to front")
	ops["a"].MoveAfter(ops["c"])
	check("move to back")
	ops["b"].Erase()
	check("erase")
	blk.Append(ir.NewOp("test.y", nil, nil))
	check("append")
	x.Remove()
	check("remove")
	blk.Append(x)
	check("re-append")
	ir.After(ops["d"]).Insert(ir.NewOp("test.z", nil, nil))
	blk.Append(ir.NewOp("test.w", nil, nil))
	check("append to an unnumbered block")

	// Ops that do not share a block are not ordered, in either direction;
	// neither is an op with itself, nor a detached one.
	if ops["a1"].IsBefore(ops["c"]) || ops["c"].IsBefore(ops["a1"]) {
		t.Error("ops of different blocks reported as ordered")
	}
	if ops["c"].IsBefore(ops["c"]) {
		t.Error("op reported before itself")
	}
	if ops["b"].IsBefore(ops["c"]) || ops["c"].IsBefore(ops["b"]) {
		t.Error("erased op reported as ordered")
	}
}
