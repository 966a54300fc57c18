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
// Lane pairing. Load widens the B tile once per launch: two neighbouring
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
// lane pairs per reduction step, block-major — so Row keeps one block's
// four lane sums in registers for a whole flush window and the inner loop is
// four loads, four multiplies and four adds per eight MACs, at every tile
// width (both models' widths are multiples of eight: Gemmini 16·J, OpenGeMM
// 8·n).
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

// MAC holds one device's widened B tile. The zero value is ready; the
// scratch is kept across launches, so a launch whose tile is no larger than
// an earlier one on the same device allocates nothing.
type MAC struct {
	// wide is the widened tile: cols/blockCols blocks, each of depth steps of
	// blockPairs lane pairs.
	wide []int64
	acc  []int32

	// The loaded tile: where it was read from, for widening it again.
	mm          *mem.Memory
	b, strideB  uint64
	depth, cols int
	subB        int64

	// lo and hi bound the bytes the last widen read; stale records a store
	// into [lo, hi) since.
	lo, hi uint64
	stale  bool
}

// Load widens the depth x cols int8 tile at b (row stride strideB bytes,
// zero point subB) and returns the cols-long accumulator row the caller
// seeds, passes to Row and stores. Every tile row is bounds-checked by
// mem.Region; the modeled traffic is the caller's to account. cols must be a
// multiple of eight.
func (k *MAC) Load(mm *mem.Memory, b, strideB uint64, depth, cols int, subB int32) []int32 {
	if cols%blockCols != 0 {
		panic("accel: MAC tile width must be a multiple of 8")
	}
	if need := depth * (cols / 2); cap(k.wide) < need {
		k.wide = make([]int64, need)
	} else {
		k.wide = k.wide[:need]
	}
	if cap(k.acc) < cols {
		k.acc = make([]int32, cols)
	}
	k.mm, k.b, k.strideB, k.depth, k.cols, k.subB = mm, b, strideB, depth, cols, int64(subB)
	k.widen()
	return k.acc[:cols]
}

// widen reads the tile from memory into lane pairs.
func (k *MAC) widen() {
	depth, cols := k.depth, k.cols
	k.lo, k.hi, k.stale = math.MaxUint64, 0, false
	for x := 0; x < depth; x++ {
		addr := k.b + uint64(x)*k.strideB
		row := k.mm.Region(addr, uint64(cols))
		k.lo, k.hi = min(k.lo, addr), max(k.hi, addr+uint64(cols))
		for blk := 0; blk*blockCols < cols; blk++ {
			src := (*[blockCols]byte)(row[blk*blockCols:])
			dst := (*[blockPairs]int64)(k.wide[(blk*depth+x)*blockPairs:])
			for p := range dst {
				lo := int64(int8(src[2*p])) - k.subB
				hi := int64(int8(src[2*p+1])) - k.subB
				dst[p] = hi<<32 + lo
			}
		}
	}
}

// Stored tells the kernel that the launch wrote [addr, addr+n), a range
// mem.Region has already checked.
func (k *MAC) Stored(addr, n uint64) {
	if addr < k.hi && k.lo < addr+n {
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
	depth := k.depth
	a = a[:depth]
	sub := int64(subA)
	for blk := 0; blk*blockCols < k.cols; blk++ {
		out := (*[blockCols]int32)(acc[blk*blockCols:])
		tile := k.wide[blk*depth*blockPairs : (blk+1)*depth*blockPairs]
		for x0 := 0; x0 < depth; x0 += flushEvery {
			window := a[x0:min(x0+flushEvery, depth)]
			w := tile[x0*blockPairs:]
			var l0, l1, l2, l3 int64
			for x, ab := range window {
				av := int64(int8(ab)) - sub
				p := (*[blockPairs]int64)(w[x*blockPairs:])
				l0 += av * p[0]
				l1 += av * p[1]
				l2 += av * p[2]
				l3 += av * p[3]
			}
			flush(out[0:2], l0)
			flush(out[2:4], l1)
			flush(out[4:6], l2)
			flush(out[6:8], l3)
		}
	}
}

// flush adds a lane pair into its two accumulators. The low lane is the
// word's low 32 bits taken as signed; removing it leaves the high lane times
// 2³².
func flush(acc []int32, lanes int64) {
	lo := int32(lanes)
	acc[0] += lo
	acc[1] += int32((lanes - int64(lo)) >> 32)
}
