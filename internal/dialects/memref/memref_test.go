package memref_test

import (
	"testing"

	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/memref"
	"configwall/internal/ir"
)

func TestDimFoldsStaticShape(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, []ir.Type{ir.Index}))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	buf := memref.NewAlloc(b, ir.MemRef(ir.I8, 48, 96))
	d := memref.NewDim(b, buf, 1)
	fnc.NewReturn(b, d)

	ir.ApplyPatternsGreedy(m.Op())
	ret := f.Body().Last()
	v, ok := arith.ConstantValue(ret.Operand(0))
	if !ok || v != 96 {
		t.Errorf("dim fold = (%d, %v), want 96", v, ok)
	}
}

func TestDimDynamicDoesNotFold(t *testing.T) {
	m := ir.NewModule()
	dyn := ir.MemRef(ir.I8, ir.DynamicSize, 8)
	f := fnc.NewFunc("f", ir.FuncType([]ir.Type{dyn}, []ir.Type{ir.Index}))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	d := memref.NewDim(b, f.Body().Arg(0), 0)
	fnc.NewReturn(b, d)

	ir.ApplyPatternsGreedy(m.Op())
	if got := ir.CountOpsNamed(m, memref.OpDim); got != 1 {
		t.Errorf("dynamic dim was folded away (count %d)", got)
	}
}

func TestMemRefTypeHelpers(t *testing.T) {
	mt := ir.MemRef(ir.I32, 4, ir.DynamicSize, 16)
	if mt.Rank() != 3 {
		t.Errorf("Rank = %d, want 3", mt.Rank())
	}
	dims := mt.Dims()
	if dims[0] != 4 || dims[1] != ir.DynamicSize || dims[2] != 16 {
		t.Errorf("Dims = %v", dims)
	}
	if mt.String() != "memref<4x?x16xi32>" {
		t.Errorf("String = %s", mt.String())
	}
	scalar := ir.MemRef(ir.I8)
	if scalar.Rank() != 0 || scalar.String() != "memref<i8>" {
		t.Errorf("rank-0 memref wrong: %s", scalar.String())
	}
}

func TestLoadStoreBuilders(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	buf := memref.NewAlloc(b, ir.MemRef(ir.I16, 8))
	idx := arith.NewConstant(b, 3, ir.Index)
	v := arith.NewConstant(b, 7, ir.I16)
	memref.NewStore(b, v, buf, idx)
	ld := memref.NewLoad(b, buf, idx)
	if !ir.TypesEqual(ld.Type(), ir.I16) {
		t.Errorf("load type = %s, want i16", ld.Type())
	}
	ptr := memref.NewExtractPointer(b, buf)
	if !ir.TypesEqual(ptr.Type(), ir.I64) {
		t.Errorf("pointer type = %s, want i64", ptr.Type())
	}
	fnc.NewReturn(b)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}
