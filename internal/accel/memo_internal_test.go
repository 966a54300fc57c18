package accel

import (
	"reflect"
	"testing"

	"configwall/internal/mem"
)

// TestMemoComparesBytesUnderCollidingHashes: a hash only indexes the memo.
// Operands and states that share a hash but differ in one byte get images
// and entries of their own, and equal bytes share them, whatever the hash.
func TestMemoComparesBytesUnderCollidingHashes(t *testing.T) {
	mm := mem.New(1 << 16)
	r1 := Rect{Addr: 0x100, Stride: 32, Rows: 4, Width: 16}
	r2 := Rect{Addr: 0x1000, Stride: 16, Rows: 4, Width: 16}
	r3 := Rect{Addr: 0x2000, Stride: 20, Rows: 4, Width: 16}
	for _, r := range []Rect{r1, r2, r3} {
		for row := uint64(0); row < r.Rows; row++ {
			copy(mm.Region(r.Addr+row*r.Stride, r.Width), "0123456789abcdef")
		}
	}
	mm.Write8(r2.Addr+2*r2.Stride+7, 'x')

	m := NewLaunchMemo()
	img1, img2, img3 := m.intern(7, mm, r1), m.intern(7, mm, r2), m.intern(7, mm, r3)
	if img1 == img2 {
		t.Error("operands one byte apart share an image under one hash")
	}
	if img3 != img1 {
		t.Error("equal operands under one hash got two images")
	}

	typ := reflect.TypeOf(m)
	key := [maxReads]*image{img1}
	fp := &Footprint{State: []byte{1, 2, 3}, Reads: []Rect{r1}, Writes: []Rect{{Addr: 0x3000, Stride: 16, Rows: 1, Width: 16}}}
	m.record(9, typ, fp, &key, mm, Launch{Ops: 3})
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.find(9, typ, []byte{1, 2, 3}, &key); e == nil || e.launch.Ops != 3 {
		t.Fatalf("recorded launch not found: %+v", e)
	}
	if e := m.find(9, typ, []byte{1, 2, 4}, &key); e != nil {
		t.Error("a state one byte apart found the entry under its hash")
	}
	if other := [maxReads]*image{img2}; m.find(9, typ, []byte{1, 2, 3}, &other) != nil {
		t.Error("other operand bytes found the entry under its hash")
	}
	if e := m.find(9, reflect.TypeOf(mm), []byte{1, 2, 3}, &key); e != nil {
		t.Error("another model found the entry under its hash")
	}
}
