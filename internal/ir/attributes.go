package ir

import (
	"fmt"
	"strconv"
	"strings"
	"unique"
)

// Attribute is compile-time metadata attached to operations. Attributes are
// immutable; they render into the textual IR inside the {...} dictionary.
type Attribute interface {
	// String renders the attribute value in textual IR syntax.
	String() string
}

// IntegerAttr holds a constant integer with an associated type. It is
// interned: the attribute is one pointer to the table's copy of its
// (value, type) pair, so storing it in an Attribute allocates nothing, and
// two IntegerAttrs are == exactly when their values and types are. Build
// one with IntAttr, IndexAttr or IntegerAttrOf and read it with Value and
// Type. The zero IntegerAttr (what a failed type assertion yields) reads
// as 0 with a nil type.
type IntegerAttr struct {
	h unique.Handle[intAttrKey]
}

// intAttrKey is an IntegerAttr's interned value. t is a comparable Type;
// a function type, which holds slices, is kept behind fn instead.
type intAttrKey struct {
	v  int64
	t  Type
	fn *FunctionType
}

// IntegerAttrOf returns the integer attribute v : t.
func IntegerAttrOf(v int64, t Type) IntegerAttr {
	if _, ok := t.(FunctionType); ok {
		// Not hashable: each such attribute is its own table entry, so ==
		// on two of them is identity. Nothing builds one but the parser.
		fn := new(FunctionType)
		*fn = t.(FunctionType)
		return IntegerAttr{unique.Make(intAttrKey{v: v, fn: fn})}
	}
	return IntegerAttr{unique.Make(intAttrKey{v: v, t: t})}
}

// IntAttr builds an IntegerAttr of type i64.
func IntAttr(v int64) IntegerAttr { return IntegerAttrOf(v, I64) }

// IndexAttr builds an IntegerAttr of type index.
func IndexAttr(v int64) IntegerAttr { return IntegerAttrOf(v, Index) }

// Value returns the attribute's integer.
func (a IntegerAttr) Value() int64 {
	if a == (IntegerAttr{}) {
		return 0
	}
	return a.h.Value().v
}

// Type returns the attribute's type.
func (a IntegerAttr) Type() Type {
	if a == (IntegerAttr{}) {
		return nil
	}
	k := a.h.Value()
	if k.fn != nil {
		return *k.fn
	}
	return k.t
}

func (a IntegerAttr) String() string {
	return strconv.FormatInt(a.Value(), 10) + " : " + a.Type().String()
}

// StringAttr holds a string constant. Like IntegerAttr it is interned —
// one pointer, == by value — built with StrAttr and read with Value; the
// zero StringAttr reads as "".
type StringAttr struct {
	h unique.Handle[string]
}

// StrAttr returns the string attribute s.
func StrAttr(s string) StringAttr { return StringAttr{unique.Make(s)} }

// Value returns the attribute's string.
func (a StringAttr) Value() string {
	if a == (StringAttr{}) {
		return ""
	}
	return a.h.Value()
}

func (a StringAttr) String() string { return quote(a.Value()) }

// BoolAttr holds a boolean constant.
type BoolAttr struct {
	Value bool
}

func (a BoolAttr) String() string {
	if a.Value {
		return "true"
	}
	return "false"
}

// UnitAttr is a presence-only marker (e.g. {volatile}).
type UnitAttr struct{}

func (UnitAttr) String() string { return "unit" }

// TypeAttr wraps a Type as an attribute (used for function signatures).
type TypeAttr struct {
	Type Type
}

func (a TypeAttr) String() string { return a.Type.String() }

// SymbolRefAttr names another symbol (function) in the module.
type SymbolRefAttr struct {
	Symbol string
}

func (a SymbolRefAttr) String() string { return "@" + a.Symbol }

// ArrayAttr is an ordered list of attributes.
type ArrayAttr struct {
	Elems []Attribute
}

func (a ArrayAttr) String() string {
	parts := make([]string, len(a.Elems))
	for i, e := range a.Elems {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// StringsAttr builds an ArrayAttr of StringAttrs, a common shape for the
// accfg field-name lists.
func StringsAttr(names ...string) ArrayAttr {
	elems := make([]Attribute, len(names))
	for i, n := range names {
		elems[i] = StrAttr(n)
	}
	return ArrayAttr{Elems: elems}
}

// EffectsKind enumerates the accfg effect annotations for foreign ops
// (paper §5.1): whether an op clobbers or preserves accelerator state.
type EffectsKind int

const (
	// EffectsAll marks an op as clobbering all accelerator state.
	EffectsAll EffectsKind = iota
	// EffectsNone marks an op as preserving all accelerator state.
	EffectsNone
)

// EffectsAttr is the #accfg.effects<all|none> annotation.
type EffectsAttr struct {
	Kind EffectsKind
}

func (a EffectsAttr) String() string {
	if a.Kind == EffectsNone {
		return "#accfg.effects<none>"
	}
	return "#accfg.effects<all>"
}

// attrDictString renders an op's attribute dictionary, which is kept
// sorted by key.
func attrDictString(attrs []namedAttr) string {
	if len(attrs) == 0 {
		return ""
	}
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		name := a.key
		if !isIdent(name) {
			name = quote(name)
		}
		if _, ok := a.val.(UnitAttr); ok {
			parts[i] = name
			continue
		}
		parts[i] = fmt.Sprintf("%s = %s", name, a.val.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
