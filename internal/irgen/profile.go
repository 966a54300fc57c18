// Package irgen generates seeded, deterministic random accfg programs for
// differential testing of the optimization pipelines (paper §5): well-formed
// accfg/scf/arith/memref modules with nested loops, branches, chained
// setup/launch/await sequences, and a mix of loop-invariant and loop-varying
// configuration fields. Every generated module verifies, compiles through
// every pipeline, and executes safely on the co-simulator — randomness lives
// in the program *structure*, while addresses, strides and tile counts are
// constrained to stay within the pre-planned buffer arena.
//
// The same seed always yields a byte-identical module and identical buffer
// contents, so a failure found by a fuzzing campaign is reproducible from
// its printed seed alone (see internal/difftest and cmd/cwfuzz).
package irgen

import (
	"fmt"

	"configwall/internal/accel"
	"configwall/internal/accel/gemmini"
	"configwall/internal/accel/opengemm"
	"configwall/internal/ir"
)

// Role classifies a configuration field for value generation: what the
// simulated device does with the field decides which values are safe.
type Role int

// Field roles.
const (
	// RoleAddress fields carry a main-memory address the device dereferences;
	// generated values always point into the field's assigned buffer.
	RoleAddress Role = iota
	// RoleStride fields carry a row stride the device multiplies into
	// addresses; generated values equal the assigned buffer's exact stride.
	RoleStride
	// RoleSize fields carry tile counts; generated values stay in
	// [1, Profile.MaxTiles] so accesses stay inside the buffer arena.
	RoleSize
	// RoleFlag fields carry a semantic 0/1 bit (e.g. ReLU on/off).
	RoleFlag
	// RoleZero fields model hardware features the device rejects
	// (transposed operands); generated values are always the constant 0.
	RoleZero
	// RoleFree fields are cost-only (scratchpad bases, DMA shapes): any
	// value is safe, so they get arbitrary expression trees.
	RoleFree
)

// Field is one configuration field the generator may write.
type Field struct {
	Name string
	Role Role
	// Buf indexes Profile.Buffers for RoleAddress / RoleStride fields.
	Buf int
	// Nullable address fields may also take the constant 0 (disabling the
	// optional input, e.g. Gemmini's bias matrix D).
	Nullable bool
}

// Group is a set of fields the generator writes atomically. On bit-packed
// configuration interfaces (Gemmini) a group mirrors one configuration
// instruction: writing only part of such a group would zero the sibling
// slots under the baseline pipeline (which has no known-fields analysis),
// changing semantics relative to the optimized pipelines — so the generator
// always emits whole groups, and gives every field of a group the same
// loop-variance so the hoisting pass moves groups wholesale.
type Group struct {
	Name   string
	Fields []Field
	// CanVary permits loop-varying values when the group is written inside
	// a loop. Groups holding RoleStride/RoleZero/RoleFlag fields stay
	// loop-invariant.
	CanVary bool
}

// BufferSpec describes one function-argument buffer of generated programs.
type BufferSpec struct {
	Name string
	Elem ir.Type
	// Rows/Cols are the memref dimensions; Cols == 0 marks a 1-D memref.
	Rows, Cols int
	// Input buffers get seeded random contents; others start zeroed.
	Input bool
}

// ElemBytes returns the element width in bytes.
func (b BufferSpec) ElemBytes() int {
	w := ir.IntegerWidth(b.Elem) / 8
	if w == 0 {
		w = 1
	}
	return w
}

// StrideBytes returns the row stride in bytes (element size for 1-D).
func (b BufferSpec) StrideBytes() int {
	if b.Cols == 0 {
		return b.ElemBytes()
	}
	return b.Cols * b.ElemBytes()
}

// Bytes returns the buffer size in bytes.
func (b BufferSpec) Bytes() int {
	if b.Cols == 0 {
		return b.Rows * b.ElemBytes()
	}
	return b.Rows * b.StrideBytes()
}

// Type returns the buffer's memref type.
func (b BufferSpec) Type() ir.MemRefType {
	if b.Cols == 0 {
		return ir.MemRef(b.Elem, b.Rows)
	}
	return ir.MemRef(b.Elem, b.Rows, b.Cols)
}

// Profile is everything the generator needs to know about one accelerator:
// its configuration field inventory (grouped at the granularity of the
// configuration interface), the buffer arena generated programs address,
// and the tile-count bound that keeps device accesses inside that arena.
type Profile struct {
	// Accel is the accfg accelerator name.
	Accel string
	// Buffers is the argument-buffer arena in signature order. The last
	// buffer is the host scratch area (never touched by the device).
	Buffers []BufferSpec
	// Scratch indexes the host-noise scratch buffer in Buffers.
	Scratch int
	// Groups is the configuration field inventory.
	Groups []Group
	// MaxTiles bounds RoleSize values; must be a power of two.
	MaxTiles int
	// TileRows is the hardware tile edge in matrix rows (16 for Gemmini's
	// systolic array, 8 for OpenGeMM's mesh): loop-varying addresses step
	// by TileRows-row blocks.
	TileRows int
}

// portGroups derives a profile's field inventory from the accelerator's
// configuration port, so the two can never drift apart: one group per
// write, in issue order, each field classified by roleOf. A group varies in
// loops unless it holds a stride, zero or flag field.
func portGroups(port *accel.Port, roleOf func(name string) Field) []Group {
	var groups []Group
	for _, w := range port.Writes {
		g := Group{Name: w.Name, CanVary: true}
		for _, slot := range w.Slots {
			f := roleOf(slot.Field)
			if f.Role == RoleStride || f.Role == RoleZero || f.Role == RoleFlag {
				g.CanVary = false
			}
			g.Fields = append(g.Fields, f)
		}
		groups = append(groups, g)
	}
	return groups
}

// GemminiProfile builds the generator profile for the Gemmini-style target.
// Group granularity follows the RoCC instruction packing.
func GemminiProfile() Profile {
	bufIdx := map[string]int{"A": 0, "B": 1, "C": 2, "D": 3}
	roleOf := func(name string) Field {
		switch name {
		case "A", "B", "C":
			return Field{Name: name, Role: RoleAddress, Buf: bufIdx[name]}
		case "D":
			return Field{Name: name, Role: RoleAddress, Buf: bufIdx[name], Nullable: true}
		case "stride_A", "stride_B", "stride_C", "stride_D":
			return Field{Name: name, Role: RoleStride, Buf: bufIdx[name[len("stride_"):]]}
		case "I", "J", "K":
			return Field{Name: name, Role: RoleSize}
		case "act", "full_C", "low_D":
			return Field{Name: name, Role: RoleFlag}
		case "A_transpose", "B_transpose":
			return Field{Name: name, Role: RoleZero}
		default:
			return Field{Name: name, Role: RoleFree}
		}
	}
	return Profile{
		Accel: gemmini.Name,
		Buffers: []BufferSpec{
			{Name: "A", Elem: ir.I8, Rows: 64, Cols: 64, Input: true},
			{Name: "B", Elem: ir.I8, Rows: 64, Cols: 64, Input: true},
			{Name: "C", Elem: ir.I8, Rows: 64, Cols: 64},
			{Name: "D", Elem: ir.I32, Rows: 64, Cols: 64, Input: true},
			{Name: "S", Elem: ir.I64, Rows: 256},
		},
		Scratch:  4,
		Groups:   portGroups(gemmini.Port, roleOf),
		MaxTiles: 2,
		TileRows: gemmini.Dim,
	}
}

// OpenGeMMProfile builds the generator profile for the OpenGeMM-style
// target: one single-field group per CSR (the port is not bit-packed, so
// partial rewrites are always faithful).
func OpenGeMMProfile() Profile {
	bufIdx := map[string]int{"ptr_a": 0, "ptr_b": 1, "ptr_c": 2, "stride_a": 0, "stride_b": 1, "stride_c": 2}
	roleOf := func(name string) Field {
		switch name {
		case "ptr_a", "ptr_b", "ptr_c":
			return Field{Name: name, Role: RoleAddress, Buf: bufIdx[name]}
		case "stride_a", "stride_b", "stride_c":
			return Field{Name: name, Role: RoleStride, Buf: bufIdx[name]}
		case "m", "k", "n":
			return Field{Name: name, Role: RoleSize}
		default: // subtractions, flags
			return Field{Name: name, Role: RoleFree}
		}
	}
	return Profile{
		Accel: opengemm.Name,
		Buffers: []BufferSpec{
			{Name: "A", Elem: ir.I8, Rows: 64, Cols: 64, Input: true},
			{Name: "B", Elem: ir.I8, Rows: 64, Cols: 64, Input: true},
			{Name: "C", Elem: ir.I32, Rows: 64, Cols: 64},
			{Name: "S", Elem: ir.I64, Rows: 256},
		},
		Scratch:  3,
		Groups:   portGroups(opengemm.Port, roleOf),
		MaxTiles: 4,
		TileRows: opengemm.MeshRow,
	}
}

// ProfileFor returns the generator profile for a registered accelerator
// name, or an error naming the supported ones.
func ProfileFor(accel string) (Profile, error) {
	switch accel {
	case gemmini.Name:
		return GemminiProfile(), nil
	case opengemm.Name:
		return OpenGeMMProfile(), nil
	}
	return Profile{}, fmt.Errorf("irgen: no generator profile for accelerator %q (have: %s, %s)", accel, gemmini.Name, opengemm.Name)
}
