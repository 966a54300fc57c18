package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Attribute is compile-time metadata attached to operations. Attributes are
// immutable; they render into the textual IR inside the {...} dictionary.
type Attribute interface {
	// String renders the attribute value in textual IR syntax.
	String() string
}

// IntegerAttr holds a constant integer with an associated type.
type IntegerAttr struct {
	Value int64
	Type  Type
}

// IntAttr builds an IntegerAttr of type i64.
func IntAttr(v int64) IntegerAttr { return IntegerAttr{Value: v, Type: I64} }

// IndexAttr builds an IntegerAttr of type index.
func IndexAttr(v int64) IntegerAttr { return IntegerAttr{Value: v, Type: Index} }

func (a IntegerAttr) String() string {
	return strconv.FormatInt(a.Value, 10) + " : " + a.Type.String()
}

// StringAttr holds a string constant.
type StringAttr struct {
	Value string
}

func (a StringAttr) String() string { return quote(a.Value) }

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
		elems[i] = StringAttr{n}
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
