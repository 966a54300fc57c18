// Package ir implements a small SSA-based compiler intermediate
// representation modelled after MLIR. It provides the substrate on which the
// accfg dialect and the configuration-overhead optimizations of the paper
// "The Configuration Wall" (ASPLOS 2026) are built.
//
// The IR is deliberately restricted to structured control flow: every region
// holds exactly one block, and loops/branches are expressed with scf.for and
// scf.if style operations. This keeps dominance trivial (lexical order plus
// nesting) while still expressing everything the paper's pipeline needs.
package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Type is the interface implemented by all IR types. Types are immutable
// values compared with ==, so identical types must be canonicalized by their
// constructors (integer widths, etc. use value types to make == work).
type Type interface {
	// String renders the type in the textual IR syntax, e.g. "i32" or
	// "!accfg.state<\"gemmini\">".
	String() string
}

// IntegerType is an integer type of a fixed bit width (i1, i8, ... i64).
type IntegerType struct {
	Width int
}

func (t IntegerType) String() string {
	// The widths in use are constants; verifiers and CSE ask on every pass.
	switch t.Width {
	case 1:
		return "i1"
	case 8:
		return "i8"
	case 16:
		return "i16"
	case 32:
		return "i32"
	case 64:
		return "i64"
	}
	return "i" + strconv.Itoa(t.Width)
}

// Common integer types.
var (
	I1  = IntegerType{1}
	I8  = IntegerType{8}
	I16 = IntegerType{16}
	I32 = IntegerType{32}
	I64 = IntegerType{64}
)

// IndexType is the platform-sized integer used for loop induction variables
// and memory indexing, mirroring MLIR's index type.
type IndexType struct{}

func (IndexType) String() string { return "index" }

// Index is the canonical IndexType instance.
var Index = IndexType{}

// NoneType is the unit type for ops that produce a token-like placeholder.
type NoneType struct{}

func (NoneType) String() string { return "none" }

// StateType is !accfg.state<"accel">: the SSA-tracked snapshot of an
// accelerator's configuration register file (paper §5.1).
type StateType struct {
	Accelerator string
}

func (t StateType) String() string {
	return "!accfg.state<" + quote(t.Accelerator) + ">"
}

// TokenType is !accfg.token<"accel">: an in-flight accelerator launch that
// can be awaited (paper §5.1).
type TokenType struct {
	Accelerator string
}

func (t TokenType) String() string {
	return "!accfg.token<" + quote(t.Accelerator) + ">"
}

// MemRefType is a minimal ranked memref: a shaped buffer of integers.
// A dimension of DynamicSize means the extent is unknown at compile time.
type MemRefType struct {
	// Shape holds one extent per dimension; DynamicSize marks dynamic dims.
	// Shape is stored as a string key because Go slices are not comparable;
	// use MemRef() to construct and Dims() to read.
	shape string
	Elem  Type
}

// DynamicSize marks a dynamic dimension extent in a MemRefType.
const DynamicSize = -1

// MemRef builds a MemRefType from dimension extents.
func MemRef(elem Type, dims ...int) MemRefType {
	parts := make([]string, len(dims))
	for i, d := range dims {
		if d == DynamicSize {
			parts[i] = "?"
		} else {
			parts[i] = fmt.Sprint(d)
		}
	}
	return MemRefType{shape: strings.Join(parts, "x"), Elem: elem}
}

// Dims returns the dimension extents of the memref.
func (t MemRefType) Dims() []int {
	if t.shape == "" {
		return nil
	}
	parts := strings.Split(t.shape, "x")
	dims := make([]int, len(parts))
	for i, p := range parts {
		if p == "?" {
			dims[i] = DynamicSize
		} else {
			fmt.Sscan(p, &dims[i])
		}
	}
	return dims
}

// Rank returns the number of dimensions.
func (t MemRefType) Rank() int {
	if t.shape == "" {
		return 0
	}
	return strings.Count(t.shape, "x") + 1
}

func (t MemRefType) String() string {
	if t.shape == "" {
		return fmt.Sprintf("memref<%s>", t.Elem)
	}
	return fmt.Sprintf("memref<%sx%s>", t.shape, t.Elem)
}

// FunctionType describes the signature of a fnc.func operation.
type FunctionType struct {
	ins  string // cached render of inputs, for comparability
	outs string
	In   []Type
	Out  []Type
}

// FuncType builds a FunctionType. The returned value is comparable only via
// its String form; use Equal for semantic comparison.
func FuncType(in, out []Type) FunctionType {
	f := FunctionType{In: in, Out: out}
	f.ins = typeListString(in)
	f.outs = typeListString(out)
	return f
}

func typeListString(ts []Type) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}

func (t FunctionType) String() string {
	return fmt.Sprintf("(%s) -> (%s)", t.ins, t.outs)
}

// Equal reports whether two function types have identical signatures.
func (t FunctionType) Equal(o FunctionType) bool {
	return t.String() == o.String()
}

// TypesEqual reports whether two types are identical: they render the same.
// Equal values of the scalar and accfg types — every comparison the
// verifiers make on a well-formed module — are recognised without
// rendering anything.
func TypesEqual(a, b Type) bool {
	if a == nil || b == nil {
		return a == b
	}
	switch a.(type) {
	case IntegerType, IndexType, StateType, TokenType:
		if a == b {
			return true
		}
	}
	return a.String() == b.String()
}

// IsInteger reports whether t is an IntegerType or IndexType (both are
// treated as integers by arith folders and the code generator).
func IsInteger(t Type) bool {
	switch t.(type) {
	case IntegerType, IndexType:
		return true
	}
	return false
}

// IntegerWidth returns the bit width of an integer-like type. Index is
// treated as 64 bits wide (the simulated host is RV64).
func IntegerWidth(t Type) int {
	switch tt := t.(type) {
	case IntegerType:
		return tt.Width
	case IndexType:
		return 64
	}
	return 0
}
