package ir

import (
	"testing"
	"unsafe"
)

// TestSlabOpSize: an Op fills its size class — 352 bytes on a 64-bit
// target, 176 on a 32-bit one — so a slab chunk wastes nothing between
// ops and a bare op nothing at its end. One more word (a slab pointer of
// its own, beside the position key and the epoch) would move every op to
// the next class, 384 bytes; the two share a word instead, as a root has
// no position and an op in a block no epoch.
func TestSlabOpSize(t *testing.T) {
	want := uintptr(352)
	if unsafe.Sizeof(uintptr(0)) == 4 {
		want = 176
	}
	if got := unsafe.Sizeof(Op{}); got != want {
		t.Errorf("unsafe.Sizeof(Op{}) = %d, want %d", got, want)
	}
}

// TestSlabOwnership: a Builder creates and clones into the slab of the
// root of the tree it inserts into — a detached root's own while it is
// detached, the module's once it is not — and a root that was drawn from
// another tree's slab gets one of its own.
func TestSlabOwnership(t *testing.T) {
	m := NewModule()
	fn := NewOp("test.func", nil, nil)
	body := fn.AddRegion().Block()
	built := AtEnd(body).Create("test.op", nil, nil)
	if fn.slab == nil || fn.slab.owner != fn || built.slab != fn.slab {
		t.Fatal("an op built into a detached root's block is not drawn from that root's slab")
	}
	m.Append(fn)
	later := AtEnd(body).Create("test.op", nil, nil)
	if later.slab == nil || later.slab.owner != m.op {
		t.Fatal("an op built after the function joined the module is not drawn from the module's slab")
	}

	loop := AtEnd(body).Create("test.loop", nil, nil)
	inner := AtEnd(loop.AddRegion().Block()).Create("test.inner", nil, nil)
	cl := Before(later).Clone(loop, nil)
	var drawn []*Op
	Walk(cl, func(op *Op) { drawn = append(drawn, op) })
	for _, op := range drawn {
		if op.slab != m.op.slab {
			t.Errorf("Builder.Clone: %s is not drawn from the module's slab", op.name)
		}
	}
	if inner.slab != m.op.slab {
		t.Error("an op built inside a nested region is not drawn from the module's slab")
	}

	loop.Remove()
	AtEnd(loop.Region(0).Block()).Create("test.op", nil, nil)
	if loop.slab == m.op.slab || loop.slab.owner != loop {
		t.Error("a root drawn from the module's slab builds into the module's slab after it left the module")
	}
}
