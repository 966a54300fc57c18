package mem_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"configwall/internal/mem"
)

func TestRoundTripWidths(t *testing.T) {
	m := mem.New(1 << 12)
	m.Write8(0x10, 0xab)
	if got := m.Read8(0x10); got != 0xab {
		t.Errorf("Read8 = %#x, want 0xab", got)
	}
	m.Write16(0x20, 0xbeef)
	if got := m.Read16(0x20); got != 0xbeef {
		t.Errorf("Read16 = %#x, want 0xbeef", got)
	}
	m.Write32(0x30, 0xdeadbeef)
	if got := m.Read32(0x30); got != 0xdeadbeef {
		t.Errorf("Read32 = %#x, want 0xdeadbeef", got)
	}
	m.Write64(0x40, 0x0123456789abcdef)
	if got := m.Read64(0x40); got != 0x0123456789abcdef {
		t.Errorf("Read64 = %#x", got)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := mem.New(64)
	m.Write32(0, 0x04030201)
	for i, want := range []uint8{1, 2, 3, 4} {
		if got := m.Read8(uint64(i)); got != want {
			t.Errorf("byte %d = %d, want %d", i, got, want)
		}
	}
}

func TestSignedRoundTripProperty(t *testing.T) {
	m := mem.New(1 << 12)
	prop := func(v int64, widthSel uint8) bool {
		width := []int{8, 16, 32, 64}[widthSel%4]
		m.WriteSigned(128, width, v)
		got := m.ReadSigned(128, width)
		// The read value must equal v truncated then sign-extended.
		want := v << (64 - uint(width)) >> (64 - uint(width))
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestReset: every write path — checked accessors of all widths, including
// ones straddling a 64 KiB dirty-tracking page boundary, and writes through
// Region views — must be undone by Reset, restoring the all-zero initial
// state.
func TestReset(t *testing.T) {
	const page = 1 << 16
	m := mem.New(4 * page)
	m.Write8(5, 0xab)
	m.Write16(page-1, 0xbeef)           // straddles pages 0 and 1
	m.Write32(2*page-2, 0xdeadbeef)     // straddles pages 1 and 2
	m.Write64(3*page-4, 0x0123456789ab) // straddles pages 2 and 3
	m.WriteSigned(3*page+100, 32, -1)
	r := m.Region(page+100, 2*page) // multi-page view, written directly
	r[0], r[len(r)-1] = 0x11, 0x22

	m.Reset()
	for _, addr := range []uint64{5, page - 1, page, 2*page - 2, 2 * page, 3*page - 4, 3 * page, 3*page + 100, page + 100, 3*page + 99} {
		if got := m.Read8(addr); got != 0 {
			t.Errorf("after Reset, mem[%#x] = %#x, want 0", addr, got)
		}
	}

	// A second cycle on the same memory must behave identically (dirty
	// flags were cleared, not leaked).
	m.Write8(7, 0x99)
	m.Reset()
	if got := m.Read8(7); got != 0 {
		t.Errorf("second Reset left mem[7] = %#x", got)
	}
}

// TestResetPartialTailPage: the last page of a non-page-aligned memory is
// shorter than the tracking granularity; Reset must clear it without
// running past the end.
func TestResetPartialTailPage(t *testing.T) {
	m := mem.New(1<<16 + 128) // one full page plus a 128-byte tail
	m.Write8(1<<16+100, 0xee)
	m.Reset()
	if got := m.Read8(1<<16 + 100); got != 0 {
		t.Errorf("tail page not cleared: %#x", got)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := mem.New(16)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-bounds access")
		}
	}()
	m.Read64(12) // crosses the end
}

// TestAddressOverflowPanics is the regression test for the bounds-check
// wraparound bug: for addresses near 2^64, addr+n overflows to a small
// value, so the naive `addr+n > size` comparison let wild accesses through
// to the raw slice (a confusing runtime panic at best, and a check that
// reads as sound while it is not). The overflow-safe check must reject
// these with the package's own out-of-bounds panic.
func TestAddressOverflowPanics(t *testing.T) {
	cases := []struct {
		name   string
		access func(m *mem.Memory)
	}{
		{"Read64 near 2^64", func(m *mem.Memory) { m.Read64(^uint64(0) - 3) }},
		{"Write64 near 2^64", func(m *mem.Memory) { m.Write64(^uint64(0)-3, 1) }},
		{"Read8 at 2^64-1", func(m *mem.Memory) { m.Read8(^uint64(0)) }},
		{"Read32 wrapping exactly to 0", func(m *mem.Memory) { m.Read32(^uint64(0) - 3) }},
		{"Region with wrapping length", func(m *mem.Memory) { m.Region(8, ^uint64(0)) }},
		{"Region at wrapping base", func(m *mem.Memory) { m.Region(^uint64(0)-3, 8) }},
		{"View with wrapping length", func(m *mem.Memory) { m.View(8, ^uint64(0)) }},
		{"View at wrapping base", func(m *mem.Memory) { m.View(^uint64(0)-3, 8) }},
		{"Version with wrapping length", func(m *mem.Memory) { m.Version(8, ^uint64(0)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mem.New(16)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected panic on wrapping out-of-bounds access")
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "out of bounds") {
					t.Fatalf("want the mem package's own bounds panic, got %v", r)
				}
			}()
			tc.access(m)
		})
	}
}

func TestRegion(t *testing.T) {
	m := mem.New(64)
	m.Write8(10, 0xab)

	r := m.Region(8, 8)
	if len(r) != 8 || r[2] != 0xab {
		t.Fatalf("Region view wrong: len=%d contents=% x", len(r), r)
	}
	// The view is live: writes through it are visible to checked reads.
	r[0] = 0x7f
	if got := m.Read8(8); got != 0x7f {
		t.Errorf("write through Region not visible: got %#x", got)
	}
	// The view is capped: appending cannot clobber adjacent memory.
	_ = append(r[:8:8], 0xee)
	if got := m.Read8(16); got != 0 {
		t.Errorf("append through Region view clobbered memory: %#x", got)
	}
}

func TestRegionOutOfBoundsPanics(t *testing.T) {
	m := mem.New(16)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-bounds Region")
		}
	}()
	m.Region(12, 8)
}

func TestSize(t *testing.T) {
	if got := mem.New(4096).Size(); got != 4096 {
		t.Errorf("Size = %d, want 4096", got)
	}
}

func TestSnapshot(t *testing.T) {
	m := mem.New(64)
	m.Write8(3, 0xab)
	m.Write8(10, 0xcd)

	snap := m.Snapshot(2, 12)
	if len(snap) != 10 {
		t.Fatalf("snapshot length = %d, want 10", len(snap))
	}
	if snap[1] != 0xab || snap[8] != 0xcd {
		t.Errorf("snapshot contents wrong: % x", snap)
	}
	// The snapshot is a copy, not a view.
	snap[1] = 0
	if m.Read8(3) != 0xab {
		t.Error("mutating the snapshot changed memory")
	}
}

func TestSnapshotOutOfBoundsPanics(t *testing.T) {
	m := mem.New(16)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-bounds snapshot")
		}
	}()
	m.Snapshot(8, 32)
}

// TestDirtyEndAgainstFullScan holds DirtyEnd to a naive scan of the whole
// memory under random sequences of every write path and Reset, on a memory
// whose last page is partial: for any to, no non-zero byte of [0, to) lies at
// or above DirtyEnd(to); the answer is a page boundary or to itself; it is 0
// after Reset; and asking again does not move the answer.
func TestDirtyEndAgainstFullScan(t *testing.T) {
	const (
		page = 1 << 16
		size = 5*page + 1000
	)
	rng := rand.New(rand.NewSource(1))
	m := mem.New(size)
	tos := []uint64{0, 1, page - 1, page, page + 1, 3*page + 17, 5 * page, size - 1, size}

	check := func(step int, afterReset bool) {
		t.Helper()
		image := m.Snapshot(0, size)
		for _, to := range append(tos, uint64(rng.Intn(size+1))) {
			end := m.DirtyEnd(to)
			if end > to || (end != to && end%page != 0) {
				t.Fatalf("step %d: DirtyEnd(%#x) = %#x, want a page boundary at most to, or to", step, to, end)
			}
			if afterReset && end != 0 {
				t.Fatalf("step %d: DirtyEnd(%#x) = %#x right after Reset, want 0", step, to, end)
			}
			for a := end; a < to; a++ {
				if image[a] != 0 {
					t.Fatalf("step %d: DirtyEnd(%#x) = %#x, but mem[%#x] = %#x", step, to, end, a, image[a])
				}
			}
			if again := m.DirtyEnd(to); again != end {
				t.Fatalf("step %d: DirtyEnd(%#x) = %#x, then %#x: it is not read-only", step, to, end, again)
			}
		}
	}

	check(0, true) // a new memory is as clean as a reset one
	for step := 1; step <= 400; step++ {
		// Mostly low addresses, so the high pages stay clean for a while;
		// odd values, so every write leaves a non-zero byte behind.
		addr := uint64(rng.Intn(size - 8))
		if rng.Intn(3) > 0 {
			addr %= 2 * page
		}
		v := rng.Uint64() | 1
		op := rng.Intn(12)
		switch op {
		case 0:
			m.Write8(addr, uint8(v))
		case 1:
			m.Write16(addr, uint16(v))
		case 2:
			m.Write32(addr, uint32(v))
		case 3:
			m.Write64(addr, v)
		case 4, 5, 6, 7:
			m.WriteSigned(addr, 8<<(op-4), int64(v))
		case 8, 9:
			n := uint64(rng.Intn(2*page)) + 1
			if n > size-addr {
				n = size - addr
			}
			r := m.Region(addr, n)
			r[0], r[n-1] = 0xa5, 0x5a
		case 10:
			m.Region(addr, 0) // an empty view exposes nothing
		case 11:
			m.Reset()
		}
		check(step, op == 11)
	}

	// The bound is tight to the page: one byte written in page 1 ends the
	// written part at the start of page 2, however far up the caller looks.
	m.Reset()
	m.Write8(page+5, 1)
	for _, tc := range [][2]uint64{{size, 2 * page}, {2 * page, 2 * page}, {page + 9, page + 9}, {page, 0}} {
		if got := m.DirtyEnd(tc[0]); got != tc[1] {
			t.Errorf("one byte written at %#x: DirtyEnd(%#x) = %#x, want %#x", page+5, tc[0], got, tc[1])
		}
	}
}

func TestDirtyEndOutOfBoundsPanics(t *testing.T) {
	m := mem.New(16)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "out of bounds") {
			t.Errorf("want the mem package's own bounds panic, got %q", msg)
		}
	}()
	m.DirtyEnd(17)
}

// TestViewPanicsWhereRegionDoes: View is Region's bounds check without the
// marking, so the two accept and refuse exactly the same ranges, at the
// edges of a memory whose size is not a multiple of a line, and around 2^64.
func TestViewPanicsWhereRegionDoes(t *testing.T) {
	const size = 1<<12 + 100
	panics := func(access func(m *mem.Memory)) (msg string) {
		defer func() { msg, _ = recover().(string) }()
		access(mem.New(size))
		return ""
	}
	edges := []uint64{0, 1, 7, size - 8, size - 1, size, size + 1, 1 << 40, ^uint64(0) - 3, ^uint64(0)}
	for _, addr := range edges {
		for _, n := range append(edges, 8) {
			region := panics(func(m *mem.Memory) { m.Region(addr, n) })
			view := panics(func(m *mem.Memory) { m.View(addr, n) })
			if region != view {
				t.Errorf("[%#x +%#x): Region panics %q, View %q", addr, n, region, view)
			}
			if view != "" && !strings.Contains(view, "out of bounds") {
				t.Errorf("[%#x +%#x): View panicked %q, want the bounds panic", addr, n, view)
			}
		}
	}
}

// TestViewMarksNothing: a read-only view shares the bytes but leaves the
// dirty flags (DirtyEnd) and the write versions alone.
func TestViewMarksNothing(t *testing.T) {
	m := mem.New(1 << 18)
	m.Write8(0x1234, 0xab)
	v0 := m.Version(0, 1<<18)
	v := m.View(0x1000, 3<<16)
	if v[0x234] != 0xab || len(v) != 3<<16 || cap(v) != 3<<16 {
		t.Fatalf("View wrong: len %d cap %d byte %#x", len(v), cap(v), v[0x234])
	}
	if got := m.DirtyEnd(1 << 18); got != 1<<16 {
		t.Errorf("after View, DirtyEnd = %#x, want %#x: View marked a page", got, 1<<16)
	}
	if got := m.Version(0, 1<<18); got != v0 {
		t.Errorf("after View, Version = %d, want %d", got, v0)
	}
}

// TestEveryWriterBumpsVersion: each write path gives every 4 KiB line it
// touches — both lines of a store across a line boundary, every line of a
// Region — a new version, and leaves the other lines alone. Reads, Views,
// Snapshot and DirtyEnd bump nothing.
func TestEveryWriterBumpsVersion(t *testing.T) {
	const line = 1 << 12
	writers := []struct {
		name  string
		write func(m *mem.Memory, addr uint64)
		n     uint64
	}{
		{"Write8", func(m *mem.Memory, a uint64) { m.Write8(a, 1) }, 1},
		{"Write16", func(m *mem.Memory, a uint64) { m.Write16(a, 1) }, 2},
		{"Write32", func(m *mem.Memory, a uint64) { m.Write32(a, 1) }, 4},
		{"Write64", func(m *mem.Memory, a uint64) { m.Write64(a, 1) }, 8},
		{"WriteSigned 8", func(m *mem.Memory, a uint64) { m.WriteSigned(a, 8, -1) }, 1},
		{"WriteSigned 16", func(m *mem.Memory, a uint64) { m.WriteSigned(a, 16, -1) }, 2},
		{"WriteSigned 32", func(m *mem.Memory, a uint64) { m.WriteSigned(a, 32, -1) }, 4},
		{"WriteSigned 64", func(m *mem.Memory, a uint64) { m.WriteSigned(a, 64, -1) }, 8},
		{"Region", func(m *mem.Memory, a uint64) { m.Region(a, 2*line+3) }, 2*line + 3},
	}
	for _, w := range writers {
		// At a line's start, inside one, and straddling a line boundary.
		for _, addr := range []uint64{3 * line, 3*line + 100, 4*line - w.n/2} {
			m := mem.New(16 * line)
			before := make([]uint64, 16)
			for l := range before {
				before[l] = m.Version(uint64(l)*line, 1)
			}
			w.write(m, addr)
			m.Read64(addr)
			m.View(0, 16*line)
			m.Snapshot(0, 16*line)
			m.DirtyEnd(16 * line)
			for l := range before {
				lo := uint64(l) * line
				touched := lo < addr+w.n && addr < lo+line
				if got := m.Version(lo, 1); (got != before[l]) != touched {
					t.Errorf("%s at %#x: line %d version %d -> %d, touched = %v", w.name, addr, l, before[l], got, touched)
				}
			}
		}
	}
}

// TestResetKeepsVersionsMonotone: Reset zeroes bytes, so the lines it
// clears get new versions, and no line ever goes back to an earlier one —
// a copy taken before a Reset is never mistaken for the zeroed memory.
func TestResetKeepsVersionsMonotone(t *testing.T) {
	const size = 5<<16 + 1000
	rng := rand.New(rand.NewSource(2))
	m := mem.New(size)
	lines := (size + 1<<12 - 1) >> 12
	last := make([]uint64, lines)
	for step := 0; step < 300; step++ {
		addr := uint64(rng.Intn(size - 8))
		switch rng.Intn(4) {
		case 0:
			m.Write64(addr, rng.Uint64())
		case 1:
			m.Region(addr, uint64(rng.Intn(size-int(addr))))
		case 2:
			m.View(addr, 8)
		case 3:
			dirty := m.DirtyEnd(size) > 0
			whole := m.Version(0, size)
			m.Reset()
			if dirty && m.Version(0, size) == whole {
				t.Fatalf("step %d: Reset zeroed dirty pages and no version moved", step)
			}
		}
		for l := range last {
			v := m.Version(uint64(l)<<12, 1)
			if v < last[l] {
				t.Fatalf("step %d: line %d went back from version %d to %d", step, l, last[l], v)
			}
			last[l] = v
		}
	}
}
