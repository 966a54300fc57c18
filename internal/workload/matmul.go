// Package workload builds the matrix-multiplication programs the paper
// evaluates (§6): accfg-level IR that configures, launches and awaits the
// Gemmini-style and OpenGeMM-style accelerators tile by tile, plus the
// golden CPU reference used to check functional correctness of every
// compiled binary.
//
// All builders are generalized over rectangular shapes: C[M,N] = A[M,K] x
// B[K,N]. The paper's square n x n workload is the M = K = N special case.
package workload

import (
	"fmt"

	"configwall/internal/accel/gemmini"
	"configwall/internal/accel/opengemm"
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/memref"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

// GemminiMaxTile is the largest output tile one gemmini_loop_ws invocation
// covers: matrices up to GemminiMaxTile x GemminiMaxTile are a single
// invocation (the paper notes sizes 32 and 64 need only one, §6.1).
const GemminiMaxTile = 64

// Shape names a matmul-family workload and maps the sweep parameter n to
// concrete M x K x N dimensions, so sweeps stay one-dimensional while
// covering rectangular shapes.
type Shape struct {
	Name        string
	Description string
	// Dims maps the sweep size to (M, K, N).
	Dims func(n int) (m, k, nn int)
}

// Canonical shape names, shared with the core workload registry.
const (
	ShapeMatmul = "matmul"
	ShapeRectMM = "rectmm"
	ShapeMatvec = "matvec"
)

// Shapes lists the registered matmul-family shapes: the paper's square
// matmul plus a rectangular and a panel (matvec-proxy) variant.
var Shapes = []Shape{
	{
		Name:        ShapeMatmul,
		Description: "square n x n x n tiled matmul (the paper's workload)",
		Dims:        func(n int) (int, int, int) { return n, n, n },
	},
	{
		Name:        ShapeRectMM,
		Description: "rectangular n x 2n x n/2 tiled matmul (wide reduction, narrow output)",
		Dims:        func(n int) (int, int, int) { return n, 2 * n, n / 2 },
	},
	{
		Name:        ShapeMatvec,
		Description: "matrix-vector proxy: n x n x 16 panel (one minimum-width output tile column)",
		Dims:        func(n int) (int, int, int) { return n, n, 16 },
	},
}

// ShapeByName returns the shape with the given name.
func ShapeByName(name string) (Shape, bool) {
	for _, s := range Shapes {
		if s.Name == name {
			return s, true
		}
	}
	return Shape{}, false
}

// gemminiTile picks the largest output-tile edge for one dimension: at most
// GemminiMaxTile, a multiple of the array dimension, and dividing dim
// evenly.
func gemminiTile(dim int) (int, error) {
	for t := GemminiMaxTile; t >= 16; t -= 16 {
		if t <= dim && dim%t == 0 {
			return t, nil
		}
	}
	return 0, fmt.Errorf("workload: gemmini dimension %d has no 16-multiple tiling <= %d", dim, GemminiMaxTile)
}

// Tiling is the output-tile edges of one launch of a tiled matmul (each
// launch reduces over the full K dimension). It is closed-form arithmetic
// over the documented tiling rules, so core.SupportedSizes decides a
// size's feasibility from it without building any IR, and the Gemmini
// builder takes its tile edges from it.
type Tiling struct {
	TileM, TileN int
}

// GemminiMatmulTiling validates the dimensions and selects the tiles; the
// builder GemminiTiledMatmulMKN calls it, so the two cannot disagree about
// which sizes exist.
func GemminiMatmulTiling(mDim, kDim, nDim int) (Tiling, error) {
	for _, d := range [3]int{mDim, kDim, nDim} {
		if d%16 != 0 || d <= 0 {
			return Tiling{}, fmt.Errorf("workload: gemmini matmul dims %dx%dx%d must be positive multiples of 16", mDim, kDim, nDim)
		}
	}
	tileM, err := gemminiTile(mDim)
	if err != nil {
		return Tiling{}, err
	}
	tileN, err := gemminiTile(nDim)
	if err != nil {
		return Tiling{}, err
	}
	return Tiling{TileM: tileM, TileN: tileN}, nil
}

// OpenGeMMMatmulTiling validates the dimensions for the fixed
// MeshRow x MeshCol (8x8) output tiling; OpenGeMMTiledMatmulMKN calls it.
func OpenGeMMMatmulTiling(mDim, kDim, nDim int) (Tiling, error) {
	for _, d := range [3]int{mDim, kDim, nDim} {
		if d%8 != 0 || d <= 0 {
			return Tiling{}, fmt.Errorf("workload: opengemm matmul dims %dx%dx%d must be positive multiples of 8", mDim, kDim, nDim)
		}
	}
	return Tiling{TileM: 8, TileN: 8}, nil
}

// GemminiTiledMatmulMKN builds C[M,N] = A[M,K] x B[K,N] (int8 inputs, int8
// outputs) as a loop nest over output tiles, each tile one weight-stationary
// invocation reducing over the full K dimension.
//
// The generated function has signature
// main(A: memref<MxK xi8>, B: memref<KxN xi8>, C: memref<MxN xi8>).
func GemminiTiledMatmulMKN(mDim, kDim, nDim int) (*ir.Module, error) {
	tiling, err := GemminiMatmulTiling(mDim, kDim, nDim)
	if err != nil {
		return nil, err
	}
	tileM, tileN := tiling.TileM, tiling.TileN

	m := ir.NewModule()
	aT := ir.MemRef(ir.I8, mDim, kDim)
	bT := ir.MemRef(ir.I8, kDim, nDim)
	cT := ir.MemRef(ir.I8, mDim, nDim)
	f := fnc.NewFunc("main", ir.FuncType([]ir.Type{aT, bT, cT}, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())

	baseA := memref.NewExtractPointer(b, f.Body().Arg(0))
	baseB := memref.NewExtractPointer(b, f.Body().Arg(1))
	baseC := memref.NewExtractPointer(b, f.Body().Arg(2))
	baseA.SetName("baseA")
	baseB.SetName("baseB")
	baseC.SetName("baseC")

	lb := arith.NewConstant(b, 0, ir.Index)
	ubM := arith.NewConstant(b, int64(mDim/tileM), ir.Index)
	ubN := arith.NewConstant(b, int64(nDim/tileN), ir.Index)
	step := arith.NewConstant(b, 1, ir.Index)

	outer := scf.NewFor(b, lb, ubM, step) // ti: output row tiles
	ob := ir.AtEnd(outer.Body())
	inner := scf.NewFor(ob, lb, ubN, step) // tj: output column tiles
	ib := ir.AtEnd(inner.Body())

	// Per-tile addresses: A advances by rows of K, B by columns, C by rows
	// of N and columns.
	ti := arith.NewIndexCast(ib, outer.InductionVar(), ir.I64)
	tj := arith.NewIndexCast(ib, inner.InductionVar(), ir.I64)
	cTileM := arith.NewConstant(ib, int64(tileM), ir.I64)
	cTileN := arith.NewConstant(ib, int64(tileN), ir.I64)
	cK := arith.NewConstant(ib, int64(kDim), ir.I64)
	cN := arith.NewConstant(ib, int64(nDim), ir.I64)
	rowOffA := arith.NewMul(ib, arith.NewMul(ib, ti, cTileM), cK)
	rowOffC := arith.NewMul(ib, arith.NewMul(ib, ti, cTileM), cN)
	colOff := arith.NewMul(ib, tj, cTileN)
	addrA := arith.NewAdd(ib, baseA, rowOffA)
	addrB := arith.NewAdd(ib, baseB, colOff)
	addrC := arith.NewAdd(ib, arith.NewAdd(ib, baseC, rowOffC), colOff)

	iConst := arith.NewConstant(ib, int64(tileM/16), ir.I64)
	jConst := arith.NewConstant(ib, int64(tileN/16), ir.I64)
	kConst := arith.NewConstant(ib, int64(kDim/16), ir.I64)
	zero := arith.NewConstant(ib, 0, ir.I64)
	one := arith.NewConstant(ib, 1, ir.I64)

	setup := accfg.NewSetup(ib, gemmini.Name, nil, []accfg.Field{
		{Name: "A", Value: addrA},
		{Name: "B", Value: addrB},
		{Name: "D", Value: zero},
		{Name: "C", Value: addrC},
		{Name: "I", Value: iConst},
		{Name: "J", Value: jConst},
		{Name: "K", Value: kConst},
		{Name: "pad_I", Value: zero},
		{Name: "pad_J", Value: zero},
		{Name: "pad_K", Value: zero},
		{Name: "stride_A", Value: cK},
		{Name: "stride_B", Value: cN},
		{Name: "stride_D", Value: zero},
		{Name: "stride_C", Value: cN},
		{Name: "act", Value: zero},
		{Name: "A_transpose", Value: zero},
		{Name: "B_transpose", Value: zero},
		{Name: "full_C", Value: zero},
		{Name: "low_D", Value: zero},
		{Name: "ex_accumulate", Value: zero},
		{Name: "acc_scale", Value: one},
		{Name: "spad_A", Value: arith.NewConstant(ib, 0x0000, ir.I64)},
		{Name: "spad_B", Value: arith.NewConstant(ib, 0x4000, ir.I64)},
		{Name: "spad_D", Value: arith.NewConstant(ib, 0x8000, ir.I64)},
		{Name: "spad_C", Value: arith.NewConstant(ib, 0xc000, ir.I64)},
		{Name: "mvin0_rows", Value: iConst},
		{Name: "mvin0_cols", Value: kConst},
		{Name: "mvin0_stride", Value: cK},
		{Name: "mvin1_rows", Value: kConst},
		{Name: "mvin1_cols", Value: jConst},
		{Name: "mvin1_stride", Value: cN},
		{Name: "mvin2_rows", Value: iConst},
		{Name: "mvin2_cols", Value: jConst},
		{Name: "mvin2_stride", Value: cN},
		{Name: "mvout_rows", Value: iConst},
		{Name: "mvout_cols", Value: jConst},
		{Name: "mvout_stride", Value: cN},
	})
	launch := accfg.NewLaunch(ib, setup.State())
	accfg.NewAwait(ib, launch.Token())

	scf.NewYield(ib)
	scf.NewYield(ob)
	fnc.NewReturn(b)

	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("workload: generated gemmini matmul invalid: %w", err)
	}
	return m, nil
}

// OpenGeMMTiledMatmulMKN builds C[M,N] (int32) = A[M,K] x B[K,N] (int8) as
// a loop nest over MeshRow x MeshCol output tiles, each launch reducing
// over the full K dimension — the paper's 8-by-K-by-8 tiling (§6.2).
//
// The generated function has signature
// main(A: memref<MxK xi8>, B: memref<KxN xi8>, C: memref<MxN xi32>).
func OpenGeMMTiledMatmulMKN(mDim, kDim, nDim int) (*ir.Module, error) {
	if _, err := OpenGeMMMatmulTiling(mDim, kDim, nDim); err != nil {
		return nil, err
	}
	m := ir.NewModule()
	aT := ir.MemRef(ir.I8, mDim, kDim)
	bT := ir.MemRef(ir.I8, kDim, nDim)
	cT := ir.MemRef(ir.I32, mDim, nDim)
	f := fnc.NewFunc("main", ir.FuncType([]ir.Type{aT, bT, cT}, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())

	baseA := memref.NewExtractPointer(b, f.Body().Arg(0))
	baseB := memref.NewExtractPointer(b, f.Body().Arg(1))
	baseC := memref.NewExtractPointer(b, f.Body().Arg(2))

	lb := arith.NewConstant(b, 0, ir.Index)
	ubM := arith.NewConstant(b, int64(mDim/8), ir.Index)
	ubN := arith.NewConstant(b, int64(nDim/8), ir.Index)
	step := arith.NewConstant(b, 1, ir.Index)

	outer := scf.NewFor(b, lb, ubM, step) // ti: output row tiles
	ob := ir.AtEnd(outer.Body())
	inner := scf.NewFor(ob, lb, ubN, step) // tj: output column tiles
	ib := ir.AtEnd(inner.Body())

	ti := arith.NewIndexCast(ib, outer.InductionVar(), ir.I64)
	tj := arith.NewIndexCast(ib, inner.InductionVar(), ir.I64)
	c8 := arith.NewConstant(ib, 8, ir.I64)
	cK := arith.NewConstant(ib, int64(kDim), ir.I64)
	cN := arith.NewConstant(ib, int64(nDim), ir.I64)
	c4 := arith.NewConstant(ib, 4, ir.I64)

	rowElemsA := arith.NewMul(ib, arith.NewMul(ib, ti, c8), cK)
	rowElemsC := arith.NewMul(ib, arith.NewMul(ib, ti, c8), cN)
	ptrA := arith.NewAdd(ib, baseA, rowElemsA)
	ptrB := arith.NewAdd(ib, baseB, arith.NewMul(ib, tj, c8))
	cOff := arith.NewMul(ib, arith.NewAdd(ib, rowElemsC, arith.NewMul(ib, tj, c8)), c4)
	ptrC := arith.NewAdd(ib, baseC, cOff)

	oneT := arith.NewConstant(ib, 1, ir.I64)
	kTiles := arith.NewConstant(ib, int64(kDim/8), ir.I64)
	strideOut := arith.NewMul(ib, cN, c4)
	zero := arith.NewConstant(ib, 0, ir.I64)

	setup := accfg.NewSetup(ib, opengemm.Name, nil, []accfg.Field{
		{Name: "ptr_a", Value: ptrA},
		{Name: "ptr_b", Value: ptrB},
		{Name: "ptr_c", Value: ptrC},
		{Name: "m", Value: oneT},
		{Name: "k", Value: kTiles},
		{Name: "n", Value: oneT},
		{Name: "stride_a", Value: cK},
		{Name: "stride_b", Value: cN},
		{Name: "stride_c", Value: strideOut},
		{Name: "subtractions", Value: zero},
		{Name: "flags", Value: zero},
	})
	launch := accfg.NewLaunch(ib, setup.State())
	accfg.NewAwait(ib, launch.Token())

	scf.NewYield(ib)
	scf.NewYield(ob)
	fnc.NewReturn(b)

	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("workload: generated opengemm matmul invalid: %w", err)
	}
	return m, nil
}
