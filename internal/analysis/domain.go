// Package analysis provides static dataflow analyses over the accfg/scf IR
// (paper §5): an abstract per-accelerator configuration-state domain, one
// abstract state both engines step (state.go), and three concrete analyses —
//
//   - reaching-configuration analysis: the abstract configuration each
//     accfg.launch observes, both as a flow summary (Summarize, behind
//     cwopt -analyze) and as a precise base-vs-optimized comparison
//     (CompareModules, the static soundness oracle behind cwopt -check,
//     the pass-manager CheckEach hook and the difftest pre-oracle);
//   - staging/memref interference analysis (interference.go): the shared
//     conservative checks the overlap pass's pipelining guards are built on;
//   - static bounds analysis (bounds.go): per-program lower bounds on
//     launch count and configuration-write traffic, checked against
//     simulator counters as a standing metamorphic invariant.
//
// The checker is deliberately one-sided: a reject is a proof of divergence
// (two matched program paths whose observable accelerator/memory event
// traces provably differ), while anything it cannot prove — symbolic value
// mismatches, unmatched branch structure, unbounded loops — degrades to an
// inconclusive accept. Soundness argument and lattice definitions live in
// DESIGN.md §9.
package analysis

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// AbsVal is the abstract value lattice element used for configuration
// fields, addresses and stored data:
//
//	       ⊤  (unknown: any runtime value)
//	  /    |    \
//	Const  Sym  ...    (incomparable middle layer)
//	  \    |    /
//	       ⊥  (unwritten / unreachable)
//
// Const is a compile-time-known integer. Sym is a canonical symbolic
// expression over function arguments, buffer base pointers, loads and
// arithmetic — two values with the same Sym key are provably equal, two
// with different keys are simply unordered (never provably different).
type AbsVal struct {
	kind absKind
	c    int64
	sym  string
}

type absKind uint8

const (
	absBottom absKind = iota
	absConst
	absSym
	absTop
)

// Bottom is the unwritten/unreachable element.
func Bottom() AbsVal { return AbsVal{kind: absBottom} }

// Const lifts a compile-time integer.
func Const(c int64) AbsVal { return AbsVal{kind: absConst, c: c} }

// Sym lifts a canonical symbolic expression key.
func Sym(key string) AbsVal { return AbsVal{kind: absSym, sym: key} }

// Top is the unknown element.
func Top() AbsVal { return AbsVal{kind: absTop} }

// IsBottom reports whether v is ⊥.
func (v AbsVal) IsBottom() bool { return v.kind == absBottom }

// IsTop reports whether v is ⊤.
func (v AbsVal) IsTop() bool { return v.kind == absTop }

// ConstValue returns the constant and whether v is a known constant.
func (v AbsVal) ConstValue() (int64, bool) { return v.c, v.kind == absConst }

// SymKey returns the canonical expression key and whether v is symbolic.
func (v AbsVal) SymKey() (string, bool) { return v.sym, v.kind == absSym }

// Equal reports lattice-element identity (the partial order's reflexivity,
// not semantic equality of the runtime values).
func (v AbsVal) Equal(o AbsVal) bool { return v == o }

// ProvablyEqual reports whether the two abstract values denote the same
// runtime value on every execution: equal constants, or identical symbolic
// keys.
func (v AbsVal) ProvablyEqual(o AbsVal) bool {
	switch {
	case v.kind == absConst && o.kind == absConst:
		return v.c == o.c
	case v.kind == absSym && o.kind == absSym:
		return v.sym == o.sym
	case v.kind == absBottom && o.kind == absBottom:
		return true
	}
	return false
}

// ProvablyDifferent reports whether the two abstract values provably denote
// different runtime values — only two distinct constants qualify; symbolic
// keys that differ may still be semantically equal, so they never prove a
// difference. This asymmetry is what makes the checker false-positive-free.
func (v AbsVal) ProvablyDifferent(o AbsVal) bool {
	return v.kind == absConst && o.kind == absConst && v.c != o.c
}

// Join is the least upper bound: ⊥ is the identity, equal elements are
// idempotent, and everything else goes to ⊤.
func (v AbsVal) Join(o AbsVal) AbsVal {
	switch {
	case v.kind == absBottom:
		return o
	case o.kind == absBottom:
		return v
	case v == o:
		return v
	}
	return Top()
}

func (v AbsVal) String() string {
	switch v.kind {
	case absBottom:
		return "⊥"
	case absConst:
		return strconv.FormatInt(v.c, 10)
	case absSym:
		return v.sym
	}
	return "⊤"
}

// FieldState is the abstract content of one accelerator's staging
// registers: the written fields, sorted by name, each with its abstract
// value. Unwritten fields are absent, and the comparison layer reads them as
// the hardware reset value (zero) — the devices' staging registers are
// defined to reset to zero.
//
// A FieldState is never changed once it is shared: applySetup, havoc and
// the flow summary's unmodeled-op arm write a fresh copy, so a launch event,
// a flow record or a cloned absState holds the slice it saw without copying
// it.
type FieldState []field[AbsVal]

// field is one entry of a field state: a field name and what the state
// knows of it. Both field states of this package (FieldState here, the
// known-fields fieldState) are slices of them sorted by name.
type field[V any] struct {
	name string
	val  V
}

// search returns where name is in fs, or where it would be inserted.
func search[V any](fs []field[V], name string) (int, bool) {
	return slices.BinarySearchFunc(fs, name, func(f field[V], name string) int {
		return strings.Compare(f.name, name)
	})
}

// set writes name in place, inserting it in order: only for a field state
// its caller has just copied and not yet shared.
func set[V any](fs []field[V], name string, v V) []field[V] {
	i, ok := search(fs, name)
	if ok {
		fs[i].val = v
		return fs
	}
	return slices.Insert(fs, i, field[V]{name, v})
}

// clone copies the field state, leaving room for extra more fields.
func (fs FieldState) clone(extra int) FieldState {
	if len(fs)+extra == 0 {
		return nil
	}
	return append(make(FieldState, 0, len(fs)+extra), fs...)
}

// join merges two staging states field-wise; a field present on only one
// side joins against the implicit reset value (Const 0).
func (fs FieldState) join(o FieldState) FieldState {
	if len(fs)+len(o) == 0 {
		return nil
	}
	out := make(FieldState, 0, len(fs)+len(o))
	for len(fs) > 0 || len(o) > 0 {
		switch {
		case len(o) == 0 || len(fs) > 0 && fs[0].name < o[0].name:
			out = append(out, field[AbsVal]{fs[0].name, fs[0].val.Join(Const(0))})
			fs = fs[1:]
		case len(fs) == 0 || o[0].name < fs[0].name:
			out = append(out, field[AbsVal]{o[0].name, o[0].val.Join(Const(0))})
			o = o[1:]
		default:
			out = append(out, field[AbsVal]{fs[0].name, fs[0].val.Join(o[0].val)})
			fs, o = fs[1:], o[1:]
		}
	}
	return out
}

// equal reports lattice-element equality.
func (fs FieldState) equal(o FieldState) bool {
	if len(fs) != len(o) {
		return false
	}
	for i := range fs {
		if fs[i].name != o[i].name || !fs[i].val.Equal(o[i].val) {
			return false
		}
	}
	return true
}

// Get reads a field, mapping unwritten to the hardware reset value.
func (fs FieldState) Get(name string) AbsVal {
	if i, ok := search(fs, name); ok {
		return fs[i].val
	}
	return Const(0)
}

// String renders the state deterministically, "a=1 b=ptr(arg0) c=⊤".
func (fs FieldState) String() string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = fmt.Sprintf("%s=%s", f.name, f.val)
	}
	return strings.Join(parts, " ")
}
