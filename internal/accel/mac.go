package accel

import (
	"math"

	"configwall/internal/mem"
)

// The int8 multiply-accumulate kernel both device models execute their
// launches with. A launch computes, for every output row r,
//
//	acc[c] += Σ_x (A[r][x] - subA) * (B[x][c] - subB)    (int32, wrapping)
//
// and the model around it owns everything else: where the accumulators
// start (bias), what happens to them afterwards (activation, saturation,
// the store), the A/C/D bounds checks and the traffic accounting.
//
// Lane pairing. Load widens a B tile into lane pairs: two neighbouring
// columns, zero point already subtracted, become the low and high 32-bit
// lanes of one int64 (hi<<32 + lo, as a signed sum). Multiplying that word
// by a widened A element is two MACs for one 64-bit multiply. Operands lie in
// [-255, 255] (an int8 minus an int8 zero point), so after at most
// flushEvery = 32 768 products a lane sum is bounded by 32 768·255·255 <
// 2³¹: the low lane never leaves int32, and what it borrowed from the high
// lane when negative is undone exactly by subtracting it before the shift
// (flush). Lanes are then added into the int32 accumulators with Go's
// wrapping addition. Wrapping addition is associative and commutative, so
// the grouping into lanes and flush windows gives the same 32 bits as the
// element-at-a-time order (bias first, x ascending) for every input,
// including sums that overflow int32.
//
// Register blocking. The tile is stored in blocks of eight columns — four
// lane pairs per reduction step, block-major — so a flush window of one
// block is four loads, four multiplies and four adds per eight MACs, at
// every tile width (both models' widths are multiples of eight: Gemmini
// 16·J, OpenGeMM 8·n). The window runs in dot, a leaf the compiler may not
// inline: inlined into Row, the four sums, the A index and the window
// length did not fit the registers left over and were spilled to the stack
// on every step.
//
// Tile reuse. A tiled matmul launches the same B tile once per row tile, and
// its column tiles are the inner loop, so consecutive launches never share a
// tile: a kernel that kept only the last one would widen every launch. The
// kernel therefore keeps every tile it has widened on the device, in one
// slab, keyed by what a widening is a function of — address, stride, depth,
// width, zero point — and by the memory's write version of the bytes it read
// (mem.Version): a launch whose tile is there and whose lines no write path
// has touched since reuses it. The slab grows by doubling up to tileBudget;
// a tile that would take it past the budget, or past maxTiles, evicts every
// tile first.
//
// Overlap. Row reads the widened copy, not memory, while the
// element-at-a-time loop it replaces read B afresh for every output row. The
// two differ only when a launch stores C into bytes it reads B from, so the
// models report each C row they store (Stored); a store inside the hull of
// the tile's rows marks the copy stale and the next Row widens it again.

// flushEvery bounds the products a lane pair sums between flushes; see the
// exactness argument above.
const flushEvery = 1 << 15

const (
	// blockCols is the number of output columns Row reduces at a time.
	blockCols = 8
	// blockPairs is the lane pairs per reduction step of one block.
	blockPairs = blockCols / 2
)

// tileBudget bounds the reduction steps (32 bytes each) the slab keeps: 8
// MiB, twice what an n = 1024 matmul widens on either target. maxTiles bounds
// the tiles, so a miss never scans a long list of small ones. Neither is a
// knob: past them the kernel forgets every tile and starts again.
const (
	tileBudget = 8 << 20 / (8 * blockPairs)
	maxTiles   = 256
)

// tileKey is what a widened tile is a function of, besides the bytes it
// read.
type tileKey struct {
	b, strideB  uint64
	depth, cols int
	subB        int64
}

// tile is one widened B tile: its key, where in the slab its depth·cols/8
// steps are, and the bytes [lo, hi) the last widening read, whose
// mem.Version was version after it.
type tile struct {
	tileKey
	off             int
	lo, hi, version uint64
}

// MAC holds one device's widened B tiles. The zero value is ready; the
// scratch is kept across launches, so a launch whose tile was widened before
// allocates nothing, and neither does a new tile once the slab has grown.
type MAC struct {
	mm    *mem.Memory // the memory every kept tile was read from
	slab  [][blockPairs]int64
	tiles []tile
	acc   []int32

	// cur indexes the loaded tile and wide is its steps: cols/blockCols
	// blocks of depth steps. stale records a store into its hull since it
	// was widened.
	cur   int
	wide  [][blockPairs]int64
	stale bool

	hits int // launches that found their tile widened
}

// Load makes the depth x cols int8 tile at b (row stride strideB bytes,
// zero point subB) the one Row multiplies by, widening it unless an
// unchanged copy is kept, and returns the cols-long accumulator row the
// caller seeds, passes to Row and stores. Every tile row a widening reads is
// bounds-checked by mem.View; the modeled traffic is the caller's to
// account. cols must be a multiple of eight.
func (k *MAC) Load(mm *mem.Memory, b, strideB uint64, depth, cols int, subB int32) []int32 {
	if cols%blockCols != 0 {
		panic("accel: MAC tile width must be a multiple of 8")
	}
	if cap(k.acc) < cols {
		k.acc = make([]int32, cols)
	}
	if mm != k.mm {
		k.mm, k.slab, k.tiles = mm, k.slab[:0], k.tiles[:0]
	}
	key := tileKey{b, strideB, depth, cols, int64(subB)}
	need := depth * cols / blockCols
	// Matmul loops load the tile after the last one, or the same one again,
	// so the search starts at the last.
	for i := range k.tiles {
		j := (k.cur + i) % len(k.tiles)
		if t := &k.tiles[j]; t.tileKey == key {
			k.cur, k.wide = j, k.slab[t.off:t.off+need]
			if mm.Version(t.lo, t.hi-t.lo) == t.version {
				k.stale = false
				k.hits++
			} else {
				k.widen()
			}
			return k.acc[:cols]
		}
	}
	if len(k.slab)+need > tileBudget || len(k.tiles) == maxTiles {
		k.slab, k.tiles = k.slab[:0], k.tiles[:0]
	}
	if len(k.slab)+need > cap(k.slab) {
		grown := make([][blockPairs]int64, len(k.slab), max(len(k.slab)+need, min(2*cap(k.slab), tileBudget)))
		copy(grown, k.slab)
		k.slab = grown
	}
	if k.tiles == nil {
		k.tiles = make([]tile, 0, 16)
	}
	off := len(k.slab)
	k.slab = k.slab[:off+need]
	k.tiles = append(k.tiles, tile{tileKey: key, off: off})
	k.cur, k.wide = len(k.tiles)-1, k.slab[off:]
	k.widen()
	return k.acc[:cols]
}

// widen reads the loaded tile from memory into lane pairs.
func (k *MAC) widen() {
	t := &k.tiles[k.cur]
	depth, cols := t.depth, t.cols
	first, end := uint64(math.MaxUint64), uint64(0)
	for x := 0; x < depth; x++ {
		addr := t.b + uint64(x)*t.strideB
		row := k.mm.View(addr, uint64(cols))
		first, end = min(first, addr), max(end, addr+uint64(cols))
		for blk := 0; blk*blockCols < cols; blk++ {
			src := (*[blockCols]byte)(row[blk*blockCols:])
			dst := &k.wide[blk*depth+x]
			for p := range dst {
				lo := int64(int8(src[2*p])) - t.subB
				hi := int64(int8(src[2*p+1])) - t.subB
				dst[p] = hi<<32 + lo
			}
		}
	}
	t.lo, t.hi, t.version = first, end, k.mm.Version(first, end-first)
	k.stale = false
}

// Stored tells the kernel that the launch wrote [addr, addr+n), a range
// mem.Region has already checked.
func (k *MAC) Stored(addr, n uint64) {
	if t := &k.tiles[k.cur]; addr < t.hi && t.lo < addr+n {
		k.stale = true
	}
}

// Row adds the products of one A row (depth int8 values, zero point subA)
// with the loaded tile into acc.
//
//cwlint:hotpath
func (k *MAC) Row(acc []int32, a []byte, subA int32) {
	if k.stale {
		k.widen()
	}
	t := &k.tiles[k.cur]
	depth := t.depth
	a = a[:depth]
	sub := int64(subA)
	for blk := 0; blk*blockCols < t.cols; blk++ {
		out := (*[blockCols]int32)(acc[blk*blockCols:])
		steps := k.wide[blk*depth : (blk+1)*depth]
		for x0 := 0; x0 < depth; x0 += flushEvery {
			l0, l1, l2, l3 := dot(a[x0:min(x0+flushEvery, depth)], steps[x0:], sub)
			flush(out[0:2], l0)
			flush(out[2:4], l1)
			flush(out[4:6], l2)
			flush(out[6:8], l3)
		}
	}
}

// dot returns the four lane sums of one block over a flush window: each A
// byte, widened and less its zero point, times the step of lane pairs it
// meets. steps must be at least as long as window.
//
//go:noinline
//cwlint:hotpath
func dot(window []byte, steps [][blockPairs]int64, sub int64) (l0, l1, l2, l3 int64) {
	steps = steps[:len(window)]
	for x, ab := range window {
		av := int64(int8(ab)) - sub
		p := &steps[x]
		l0 += av * p[0]
		l1 += av * p[1]
		l2 += av * p[2]
		l3 += av * p[3]
	}
	return l0, l1, l2, l3
}

// flush adds a lane pair into its two accumulators. The low lane is the
// word's low 32 bits taken as signed; removing it leaves the high lane times
// 2³².
func flush(acc []int32, lanes int64) {
	lo := int32(lanes)
	acc[0] += lo
	acc[1] += int32((lanes - int64(lo)) >> 32)
}
