package csrops_test

import (
	"testing"

	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/csrops"
	"configwall/internal/dialects/fnc"
	"configwall/internal/ir"
)

func TestWriteAndBarrier(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c := arith.NewConstant(b, 9, ir.I64)
	w := csrops.NewWrite(b, 0x3c0, c)
	bar := csrops.NewBarrier(b, 0x3cc)
	fnc.NewReturn(b)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	if csrops.Addr(w) != 0x3c0 || csrops.Addr(bar) != 0x3cc {
		t.Error("addr accessors wrong")
	}
	ir.ApplyPatternsGreedy(m.Op())
	if ir.CountOpsNamed(m, csrops.OpWrite) != 1 || ir.CountOpsNamed(m, csrops.OpBarrier) != 1 {
		t.Error("DCE removed an impure csr op")
	}
}

func TestVerifiers(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	bad := ir.NewOp(csrops.OpWrite, nil, nil) // missing operand and addr
	b.Insert(bad)
	fnc.NewReturn(b)
	if err := ir.Verify(m); err == nil {
		t.Error("verifier accepted malformed csr.write")
	}
}

// TestNewWriteAllocatesNoAttribute: a write's address attribute is
// interned, so building writes to addresses already seen costs exactly
// what building the bare ops does — no boxed attribute per write.
func TestNewWriteAllocatesNoAttribute(t *testing.T) {
	const ops = 64
	build := func(write func(b *ir.Builder, v *ir.Value, i int)) float64 {
		return testing.AllocsPerRun(20, func() {
			b := ir.AtEnd(ir.NewModule().Block())
			v := arith.NewConstant(b, 9, ir.I64)
			for i := range ops {
				write(b, v, i)
			}
		})
	}
	bare := build(func(b *ir.Builder, v *ir.Value, _ int) { b.Create(csrops.OpWrite, []*ir.Value{v}, nil) })
	built := build(func(b *ir.Builder, v *ir.Value, i int) { csrops.NewWrite(b, 0x3c0+uint32(i%8), v) })
	if built != bare {
		t.Errorf("%d writes: %v allocations, %v for the bare ops: want no more", ops, built, bare)
	}
}
