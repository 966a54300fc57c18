package rocc_test

import (
	"testing"

	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/rocc"
	"configwall/internal/ir"
)

func TestWriteAndFence(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c := arith.NewConstant(b, 1, ir.I64)
	w := rocc.NewWrite(b, 7, c, c)
	fe := rocc.NewFence(b, 11)
	fnc.NewReturn(b)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	if rocc.Funct7(w) != 7 || rocc.Funct7(fe) != 11 {
		t.Error("funct7 accessors wrong")
	}
	// rocc ops are impure: never removed by DCE even when "unused".
	ir.ApplyPatternsGreedy(m.Op())
	if ir.CountOpsNamed(m, rocc.OpWrite) != 1 || ir.CountOpsNamed(m, rocc.OpFence) != 1 {
		t.Error("DCE removed an impure rocc op")
	}
}

func TestWriteVerifier(t *testing.T) {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	c := arith.NewConstant(b, 1, ir.I64)
	bad := ir.NewOp(rocc.OpWrite, []*ir.Value{c}, nil) // one operand, no funct7
	b.Insert(bad)
	fnc.NewReturn(b)
	if err := ir.Verify(m); err == nil {
		t.Error("verifier accepted malformed rocc.write")
	}
}
