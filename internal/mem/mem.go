// Package mem provides the byte-addressable simulated main memory shared by
// the host CPU and the accelerator models. All accesses are little-endian.
// Traffic counters feed the memory axis of the combined roofline (paper
// Eq. 5).
package mem

import (
	"encoding/binary"
	"fmt"
)

// pageShift sets the dirty-tracking granularity: 64 KiB pages keep the
// bitmap tiny (1024 flags for a 64 MiB arena) while letting Reset skip the
// untouched bulk of a large memory. lineShift sets the write-version
// granularity: 4 KiB lines, finer than a page so a cached copy of one buffer
// is not invalidated by stores into its neighbours.
const (
	pageShift = 16
	pageSize  = 1 << pageShift
	lineShift = 12
)

// Memory is a flat little-endian byte-addressable memory.
type Memory struct {
	data []byte

	// dirty flags pages that may have been written since New or the last
	// Reset; Reset zeroes only those. The write accessors mark it, and
	// Region marks its whole span because the returned view is writable.
	dirty []bool
	// version counts, per line, the writes that may have changed it: every
	// writer that marks dirty bumps it, and so does Reset for the lines it
	// zeroes. Nothing lowers a version (uint64 does not wrap in practice),
	// so an unchanged sum over a range means an unchanged range (Version).
	version []uint64

	// BytesRead and BytesWritten count all traffic, host and accelerator.
	BytesRead    uint64
	BytesWritten uint64
}

// New allocates a memory of the given size in bytes.
func New(size int) *Memory {
	return &Memory{
		data:    make([]byte, size),
		dirty:   make([]bool, (size+pageSize-1)>>pageShift),
		version: make([]uint64, (size+1<<lineShift-1)>>lineShift),
	}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

// Snapshot copies the byte range [from, to) without touching the traffic
// counters. The differential-test oracle uses it to compare the final memory
// state of two simulations of the same program.
func (m *Memory) Snapshot(from, to uint64) []byte {
	if from > to || to > uint64(len(m.data)) {
		panic(fmt.Sprintf("mem: snapshot [%#x, %#x) out of bounds (size %#x)", from, to, len(m.data)))
	}
	out := make([]byte, to-from)
	copy(out, m.data[from:to])
	return out
}

// DirtyEnd bounds the written part of [0, to): it returns the end of the
// last page below to that is flagged dirty, clamped to to, or 0 when none
// is. Every byte of [DirtyEnd(to), to) has therefore been zero since New or
// the last Reset, so a caller that wants the image of [0, to) need not read
// past it. Like Snapshot it leaves the traffic counters and the dirty flags
// alone, and panics when to lies outside the memory.
func (m *Memory) DirtyEnd(to uint64) uint64 {
	if to > uint64(len(m.data)) {
		panic(fmt.Sprintf("mem: dirty end below %#x out of bounds (size %#x)", to, len(m.data)))
	}
	for p := int((to+pageSize-1)>>pageShift) - 1; p >= 0; p-- {
		if m.dirty[p] {
			return min(uint64(p+1)<<pageShift, to)
		}
	}
	return 0
}

// ResetCounters zeroes the traffic counters.
func (m *Memory) ResetCounters() {
	m.BytesRead, m.BytesWritten = 0, 0
}

// Reset restores the memory to its initial all-zero state and clears the
// traffic counters, zeroing only the pages written (or exposed through a
// Region view) since construction or the previous Reset. It is the
// reset-not-reallocate primitive behind pooled execution contexts:
// resetting a lightly-used 64 MiB arena touches kilobytes, not megabytes.
// Zeroing is a write: the lines of every cleared page get a new version.
func (m *Memory) Reset() {
	for p, d := range m.dirty {
		if !d {
			continue
		}
		lo := p << pageShift
		hi := min(lo+pageSize, len(m.data))
		clear(m.data[lo:hi])
		m.dirty[p] = false
		m.bump(uint64(lo), uint64(hi-lo))
	}
	m.BytesRead, m.BytesWritten = 0, 0
}

// mark flags the (at most two, for n <= pageSize) pages and lines
// overlapping the write [addr, addr+n). Branch-free and tiny so the write
// accessors stay within the compiler's inlining budget; callers have already
// bounds-checked [addr, addr+n) and guarantee n > 0.
func (m *Memory) mark(addr, n uint64) {
	end := addr + n - 1
	m.dirty[addr>>pageShift] = true
	m.dirty[end>>pageShift] = true
	m.version[addr>>lineShift]++
	m.version[end>>lineShift]++
}

// bump gives every line overlapping [addr, addr+n), n > 0, a new version.
func (m *Memory) bump(addr, n uint64) {
	for l, last := addr>>lineShift, (addr+n-1)>>lineShift; l <= last; l++ {
		m.version[l]++
	}
}

// check panics unless [addr, addr+n) lies inside memory. The comparison is
// overflow-safe: for addresses near 2^64, addr+n wraps around zero, so the
// naive `addr+n > size` test would wave wild accesses through — instead the
// remaining room size-addr is compared against n, which cannot wrap because
// addr <= size is established first.
func (m *Memory) check(addr, n uint64) {
	if size := uint64(len(m.data)); addr > size || n > size-addr {
		m.boundsPanic(addr, n)
	}
}

// boundsPanic is kept out of check so check (and the accessors calling it)
// stays within the compiler's inlining budget — the simulator engines sit
// in these accessors for every host load and store.
//
//go:noinline
func (m *Memory) boundsPanic(addr, n uint64) {
	panic(fmt.Sprintf("mem: access [%#x, %#x) out of bounds (size %#x)", addr, addr+n, len(m.data)))
}

// Region returns a writable view of [addr, addr+n) after a single
// overflow-safe bounds check: one check and one slice header replace n
// checked per-byte stores. Because the caller may write through it, Region
// marks every page it spans dirty and gives every line a new version; a
// caller that only reads takes View instead.
//
// Region does NOT touch the traffic counters — callers that hoist row
// accesses must account their modeled traffic in bulk with AddTraffic so
// the per-access counter semantics of the checked accessors are preserved
// exactly.
func (m *Memory) Region(addr, n uint64) []byte {
	m.check(addr, n)
	if n > 0 {
		for p, last := addr>>pageShift, (addr+n-1)>>pageShift; p <= last; p++ {
			m.dirty[p] = true
		}
		m.bump(addr, n)
	}
	return m.data[addr : addr+n : addr+n]
}

// View returns a read-only view of [addr, addr+n) after the same
// overflow-safe bounds check as Region. It marks nothing: the caller must
// not write through it. Like Region it leaves the traffic counters to
// AddTraffic.
func (m *Memory) View(addr, n uint64) []byte {
	m.check(addr, n)
	return m.data[addr : addr+n : addr+n]
}

// Version returns the sum of the write versions of the lines overlapping
// [addr, addr+n), or 0 when n is 0. Versions only grow, so the sum is
// unchanged exactly when no write path — a checked writer, Region or Reset —
// has touched those lines since it was last taken: a copy made of the
// range then is still a copy of it. It moves neither the traffic counters
// nor the dirty flags, and panics when the range lies outside the memory.
func (m *Memory) Version(addr, n uint64) uint64 {
	m.check(addr, n)
	var sum uint64
	if n > 0 {
		for _, v := range m.version[addr>>lineShift : (addr+n-1)>>lineShift+1] {
			sum += v
		}
	}
	return sum
}

// AddTraffic adds modeled traffic to the counters in bulk. Fast paths that
// bypass the checked per-access methods (Region and View) use it to keep
// BytesRead/BytesWritten byte-identical to the equivalent sequence of
// checked accesses.
func (m *Memory) AddTraffic(read, written uint64) {
	m.BytesRead += read
	m.BytesWritten += written
}

// Read8 loads one byte.
func (m *Memory) Read8(addr uint64) uint8 {
	m.check(addr, 1)
	m.BytesRead++
	return m.data[addr]
}

// Write8 stores one byte.
func (m *Memory) Write8(addr uint64, v uint8) {
	m.check(addr, 1)
	m.mark(addr, 1)
	m.BytesWritten++
	m.data[addr] = v
}

// Read16 loads a little-endian 16-bit value.
func (m *Memory) Read16(addr uint64) uint16 {
	m.check(addr, 2)
	m.BytesRead += 2
	return binary.LittleEndian.Uint16(m.data[addr:])
}

// Write16 stores a little-endian 16-bit value.
func (m *Memory) Write16(addr uint64, v uint16) {
	m.check(addr, 2)
	m.mark(addr, 2)
	m.BytesWritten += 2
	binary.LittleEndian.PutUint16(m.data[addr:], v)
}

// Read32 loads a little-endian 32-bit value.
func (m *Memory) Read32(addr uint64) uint32 {
	m.check(addr, 4)
	m.BytesRead += 4
	return binary.LittleEndian.Uint32(m.data[addr:])
}

// Write32 stores a little-endian 32-bit value.
func (m *Memory) Write32(addr uint64, v uint32) {
	m.check(addr, 4)
	m.mark(addr, 4)
	m.BytesWritten += 4
	binary.LittleEndian.PutUint32(m.data[addr:], v)
}

// Read64 loads a little-endian 64-bit value.
func (m *Memory) Read64(addr uint64) uint64 {
	m.check(addr, 8)
	m.BytesRead += 8
	return binary.LittleEndian.Uint64(m.data[addr:])
}

// Write64 stores a little-endian 64-bit value.
func (m *Memory) Write64(addr uint64, v uint64) {
	m.check(addr, 8)
	m.mark(addr, 8)
	m.BytesWritten += 8
	binary.LittleEndian.PutUint64(m.data[addr:], v)
}

// ReadSigned loads a sign-extended value of width bits (8, 16, 32 or 64).
func (m *Memory) ReadSigned(addr uint64, width int) int64 {
	switch width {
	case 8:
		return int64(int8(m.Read8(addr)))
	case 16:
		return int64(int16(m.Read16(addr)))
	case 32:
		return int64(int32(m.Read32(addr)))
	case 64:
		return int64(m.Read64(addr))
	}
	panic(fmt.Sprintf("mem: unsupported width %d", width))
}

// WriteSigned stores the low width bits of v (8, 16, 32 or 64).
func (m *Memory) WriteSigned(addr uint64, width int, v int64) {
	switch width {
	case 8:
		m.Write8(addr, uint8(v))
	case 16:
		m.Write16(addr, uint16(v))
	case 32:
		m.Write32(addr, uint32(v))
	case 64:
		m.Write64(addr, uint64(v))
	default:
		panic(fmt.Sprintf("mem: unsupported width %d", width))
	}
}
