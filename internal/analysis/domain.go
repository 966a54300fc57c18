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
	"sort"
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
		return fmt.Sprintf("%d", v.c)
	case absSym:
		return v.sym
	}
	return "⊤"
}

// FieldState is the abstract content of one accelerator's staging
// registers: field name to abstract value. Fields absent from the map are
// unwritten, which the comparison layer reads as the hardware reset value
// (zero) — the devices' staging registers are defined to reset to zero.
type FieldState map[string]AbsVal

// clone copies the field map.
func (fs FieldState) clone() FieldState {
	out := make(FieldState, len(fs))
	for k, v := range fs {
		out[k] = v
	}
	return out
}

// join merges two staging states field-wise; a field present on only one
// side joins against the implicit reset value (Const 0).
func (fs FieldState) join(o FieldState) FieldState {
	out := make(FieldState, len(fs)+len(o))
	for k, v := range fs {
		if ov, ok := o[k]; ok {
			out[k] = v.Join(ov)
		} else {
			out[k] = v.Join(Const(0))
		}
	}
	for k, v := range o {
		if _, ok := fs[k]; !ok {
			out[k] = v.Join(Const(0))
		}
	}
	return out
}

// get reads a field, mapping unwritten to the hardware reset value.
func (fs FieldState) get(name string) AbsVal {
	if v, ok := fs[name]; ok {
		return v
	}
	return Const(0)
}

// names returns the written field names, sorted.
func (fs FieldState) names() []string {
	out := make([]string, 0, len(fs))
	for k := range fs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the state deterministically, "a=1 b=ptr(arg0) c=⊤".
func (fs FieldState) String() string {
	parts := make([]string, 0, len(fs))
	for _, n := range fs.names() {
		parts = append(parts, fmt.Sprintf("%s=%s", n, fs[n]))
	}
	return strings.Join(parts, " ")
}
