package ir_test

import (
	"testing"

	"configwall/internal/ir"
)

// TestAttributesAreInterned: an IntegerAttr or a StringAttr is one pointer
// into the intern table, so == on two of them is == on their values, and
// boxing one into an ir.Attribute allocates nothing once its value has
// been seen. A zero attribute — what a failed type assertion yields —
// still reads as the zero value it read as when the fields were public.
func TestAttributesAreInterned(t *testing.T) {
	if ir.IntegerAttrOf(3, ir.I64) != ir.IntegerAttrOf(3, ir.I64) {
		t.Error("IntegerAttrOf(3, i64) != IntegerAttrOf(3, i64)")
	}
	if ir.IntegerAttrOf(3, ir.I64) == ir.IntegerAttrOf(3, ir.I32) {
		t.Error("IntegerAttrOf(3, i64) == IntegerAttrOf(3, i32)")
	}
	if ir.IntegerAttrOf(3, ir.I64) == ir.IntegerAttrOf(4, ir.I64) {
		t.Error("IntegerAttrOf(3, i64) == IntegerAttrOf(4, i64)")
	}
	if ir.IntAttr(3) != ir.IntegerAttrOf(3, ir.I64) || ir.IndexAttr(3) != ir.IntegerAttrOf(3, ir.Index) || ir.IndexAttr(3) == ir.IntAttr(3) {
		t.Error("IntAttr and IndexAttr are not IntegerAttrOf of i64 and index")
	}
	if ir.StrAttr("slt") != ir.StrAttr("s"+"lt") || ir.StrAttr("slt") == ir.StrAttr("sle") {
		t.Error("StrAttr is not equal by value")
	}
	if a := ir.IntegerAttrOf(-5, ir.I16); a.Value() != -5 || a.Type() != ir.I16 || a.String() != "-5 : i16" {
		t.Errorf("IntegerAttrOf(-5, i16) reads %d : %v, prints %q", a.Value(), a.Type(), a.String())
	}

	var s ir.Attribute = ir.StrAttr("x")
	if z, ok := s.(ir.IntegerAttr); ok || z.Value() != 0 || z.Type() != nil {
		t.Errorf("a failed assertion to IntegerAttr reads %d : %v (ok %v), want 0 : <nil>", z.Value(), z.Type(), ok)
	}
	var i ir.Attribute = ir.IntAttr(1)
	if z, ok := i.(ir.StringAttr); ok || z.Value() != "" {
		t.Errorf("a failed assertion to StringAttr reads %q (ok %v), want \"\"", z.Value(), ok)
	}

	// An integer of function type has no hashable type: it is its own
	// entry, and still reads and prints as built.
	ft := ir.FuncType([]ir.Type{ir.I64}, nil)
	if a := ir.IntegerAttrOf(1, ft); a.Value() != 1 || !ir.TypesEqual(a.Type(), ft) || a.String() != "1 : (i64) -> ()" {
		t.Errorf("IntegerAttrOf(1, %s) reads %d : %v", ft, a.Value(), a.Type())
	}

	var sink ir.Attribute
	for _, tc := range []struct {
		name  string
		build func()
	}{
		{"IntegerAttrOf", func() { sink = ir.IntegerAttrOf(42, ir.I32) }},
		{"IntAttr", func() { sink = ir.IntAttr(42) }},
		{"IndexAttr", func() { sink = ir.IndexAttr(42) }},
		{"StrAttr", func() { sink = ir.StrAttr("field") }},
	} {
		if n := testing.AllocsPerRun(100, tc.build); n != 0 {
			t.Errorf("%s of a seen value boxed into an Attribute: %v allocations, want 0", tc.name, n)
		}
	}
	_ = sink
}
