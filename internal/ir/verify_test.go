package ir_test

// Table-driven negative coverage for ir.Verify: malformed operations,
// operand/result arity violations, undefined or out-of-scope values, and
// broken region terminators. Each case builds an invalid module through the
// raw op API (the typed builders refuse to construct most of these) and
// asserts the verifier rejects it with the documented diagnostic.

import (
	"strings"
	"testing"

	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

// wrap builds a module with one function whose body is produced by fill.
func wrap(fill func(b *ir.Builder)) *ir.Module {
	m := ir.NewModule()
	f := fnc.NewFunc("f", ir.FuncType(nil, nil))
	m.Append(f.Op)
	fill(ir.AtEnd(f.Body()))
	return m
}

func TestVerifyErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *ir.Module
		wantErr string
	}{
		{
			name: "nil operand",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					b.Create("arith.addi", []*ir.Value{nil, nil}, []ir.Type{ir.I64})
					fnc.NewReturn(b)
				})
			},
			wantErr: "operand 0 is nil",
		},
		{
			name: "undefined value from sibling region",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					cond := arith.NewConstant(b, 1, ir.I1)
					ifOp := scf.NewIf(b, cond)
					tb := ir.AtEnd(ifOp.Then())
					leak := arith.NewConstant(tb, 7, ir.I64)
					scf.NewYield(tb)
					eb := ir.AtEnd(ifOp.Else())
					// Uses a value defined in the then-region: not visible.
					arith.NewAdd(eb, leak, leak)
					scf.NewYield(eb)
					fnc.NewReturn(b)
				})
			},
			wantErr: "not visible at use site",
		},
		{
			name: "use before definition",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					c := arith.NewConstant(b, 1, ir.I64)
					sum := arith.NewAdd(b, c, c)
					fnc.NewReturn(b)
					sum.DefiningOp().MoveBefore(c.DefiningOp())
				})
			},
			wantErr: "not visible at use site",
		},
		{
			name: "empty region body",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					lb := arith.NewConstant(b, 0, ir.Index)
					op := b.Create("scf.for", []*ir.Value{lb, lb, lb}, nil)
					op.AddRegion().Block().AddArg(ir.Index)
					fnc.NewReturn(b)
				})
			},
			wantErr: "empty region body",
		},
		{
			name: "region not ending in terminator",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					cond := arith.NewConstant(b, 0, ir.I1)
					ifOp := scf.NewIf(b, cond)
					arith.NewConstant(ir.AtEnd(ifOp.Then()), 1, ir.I64)
					scf.NewYield(ir.AtEnd(ifOp.Else()))
					fnc.NewReturn(b)
				})
			},
			wantErr: "does not end in a terminator",
		},
		{
			name: "terminator in the middle of a block",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					cond := arith.NewConstant(b, 0, ir.I1)
					ifOp := scf.NewIf(b, cond)
					tb := ir.AtEnd(ifOp.Then())
					scf.NewYield(tb)
					scf.NewYield(tb)
					scf.NewYield(ir.AtEnd(ifOp.Else()))
					fnc.NewReturn(b)
				})
			},
			wantErr: "in the middle of a block",
		},
		{
			name: "setup missing accelerator attribute",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					op := b.Create(accfg.OpSetup, nil, []ir.Type{ir.StateType{Accelerator: "acc"}})
					op.SetAttr("fields", ir.StringsAttr())
					fnc.NewReturn(b)
				})
			},
			wantErr: "missing 'accelerator' attribute",
		},
		{
			name: "setup field/operand arity mismatch",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					v := arith.NewConstant(b, 1, ir.I64)
					op := b.Create(accfg.OpSetup, []*ir.Value{v}, []ir.Type{ir.StateType{Accelerator: "acc"}})
					op.SetAttr("accelerator", ir.StrAttr("acc"))
					op.SetAttr("fields", ir.StringsAttr("x", "y"))
					fnc.NewReturn(b)
				})
			},
			wantErr: "2 field names but 1 field operands",
		},
		{
			name: "setup duplicate field",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					v := arith.NewConstant(b, 1, ir.I64)
					op := b.Create(accfg.OpSetup, []*ir.Value{v, v}, []ir.Type{ir.StateType{Accelerator: "acc"}})
					op.SetAttr("accelerator", ir.StrAttr("acc"))
					op.SetAttr("fields", ir.StringsAttr("x", "x"))
					fnc.NewReturn(b)
				})
			},
			wantErr: `duplicate field "x"`,
		},
		{
			name: "setup chained from foreign accelerator state",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					other := accfg.NewSetup(b, "other", nil, nil)
					op := b.Create(accfg.OpSetup, []*ir.Value{other.State()}, []ir.Type{ir.StateType{Accelerator: "acc"}})
					op.SetAttr("accelerator", ir.StrAttr("acc"))
					op.SetAttr("fields", ir.StringsAttr())
					op.SetAttr("in_state", ir.UnitAttr{})
					fnc.NewReturn(b)
				})
			},
			wantErr: `input state is for accelerator "other"`,
		},
		{
			name: "setup result accelerator mismatch",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					op := b.Create(accfg.OpSetup, nil, []ir.Type{ir.StateType{Accelerator: "wrong"}})
					op.SetAttr("accelerator", ir.StrAttr("acc"))
					op.SetAttr("fields", ir.StringsAttr())
					fnc.NewReturn(b)
				})
			},
			wantErr: `result state accelerator "wrong" does not match "acc"`,
		},
		{
			name: "launch without state operand",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					b.Create(accfg.OpLaunch, nil, []ir.Type{ir.TokenType{Accelerator: "acc"}})
					fnc.NewReturn(b)
				})
			},
			wantErr: "expects one state operand and one token result",
		},
		{
			name: "launch token accelerator mismatch",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					s := accfg.NewSetup(b, "acc", nil, nil)
					b.Create(accfg.OpLaunch, []*ir.Value{s.State()}, []ir.Type{ir.TokenType{Accelerator: "other"}})
					fnc.NewReturn(b)
				})
			},
			wantErr: `state accelerator "acc" does not match token "other"`,
		},
		{
			name: "await of a non-token value",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					v := arith.NewConstant(b, 0, ir.I64)
					b.Create(accfg.OpAwait, []*ir.Value{v}, nil)
					fnc.NewReturn(b)
				})
			},
			wantErr: "operand must be !accfg.token",
		},
		{
			name: "for with too few operands",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					lb := arith.NewConstant(b, 0, ir.Index)
					op := b.Create("scf.for", []*ir.Value{lb, lb}, nil)
					op.AddRegion()
					fnc.NewReturn(b)
				})
			},
			wantErr: "needs lb, ub, step",
		},
		{
			name: "for body argument arity mismatch",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					lb := arith.NewConstant(b, 0, ir.Index)
					op := b.Create("scf.for", []*ir.Value{lb, lb, lb}, nil)
					blk := op.AddRegion().Block()
					blk.AddArg(ir.Index)
					blk.AddArg(ir.I64) // extra arg without an iter operand
					scf.NewYield(ir.AtEnd(blk))
					fnc.NewReturn(b)
				})
			},
			wantErr: "body needs 1 args",
		},
		{
			name: "for iteration-argument type mismatch",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					lb := arith.NewConstant(b, 0, ir.Index)
					init := arith.NewConstant(b, 0, ir.I64)
					op := b.Create("scf.for", []*ir.Value{lb, lb, lb, init}, []ir.Type{ir.I32})
					blk := op.AddRegion().Block()
					blk.AddArg(ir.Index)
					arg := blk.AddArg(ir.I64)
					scf.NewYield(ir.AtEnd(blk), arg)
					fnc.NewReturn(b)
				})
			},
			wantErr: "iter arg 0 type mismatch",
		},
		{
			name: "for yield arity mismatch",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					lb := arith.NewConstant(b, 0, ir.Index)
					init := arith.NewConstant(b, 0, ir.I64)
					op := b.Create("scf.for", []*ir.Value{lb, lb, lb, init}, []ir.Type{ir.I64})
					blk := op.AddRegion().Block()
					blk.AddArg(ir.Index)
					blk.AddArg(ir.I64)
					scf.NewYield(ir.AtEnd(blk)) // yields nothing
					fnc.NewReturn(b)
				})
			},
			wantErr: "yield carries 0 values",
		},
		{
			name: "if condition not i1",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					cond := arith.NewConstant(b, 1, ir.I64)
					op := b.Create("scf.if", []*ir.Value{cond}, nil)
					op.AddRegion()
					op.AddRegion()
					scf.NewYield(ir.AtEnd(op.Region(0).Block()))
					scf.NewYield(ir.AtEnd(op.Region(1).Block()))
					fnc.NewReturn(b)
				})
			},
			wantErr: "condition must be i1",
		},
		{
			name: "if missing else region",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					cond := arith.NewConstant(b, 1, ir.I1)
					op := b.Create("scf.if", []*ir.Value{cond}, nil)
					op.AddRegion()
					scf.NewYield(ir.AtEnd(op.Region(0).Block()))
					fnc.NewReturn(b)
				})
			},
			wantErr: "needs then and else regions",
		},
		{
			name: "if branch yield arity mismatch",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					cond := arith.NewConstant(b, 1, ir.I1)
					op := b.Create("scf.if", []*ir.Value{cond}, []ir.Type{ir.I64})
					op.AddRegion()
					op.AddRegion()
					scf.NewYield(ir.AtEnd(op.Region(0).Block())) // 0 values, 1 result
					v := arith.NewConstant(ir.AtEnd(op.Region(1).Block()), 3, ir.I64)
					scf.NewYield(ir.AtEnd(op.Region(1).Block()), v)
					fnc.NewReturn(b)
				})
			},
			wantErr: "region 0 yields 0 values",
		},
		{
			name: "constant without value attribute",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					b.Create(arith.OpConstant, nil, []ir.Type{ir.I64})
					fnc.NewReturn(b)
				})
			},
			wantErr: "expects integer 'value' attribute",
		},
		{
			name: "binary op with one operand",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					v := arith.NewConstant(b, 1, ir.I64)
					b.Create(arith.OpAddI, []*ir.Value{v}, []ir.Type{ir.I64})
					fnc.NewReturn(b)
				})
			},
			wantErr: "expects two operands",
		},
		{
			name: "cmpi without predicate",
			build: func() *ir.Module {
				return wrap(func(b *ir.Builder) {
					v := arith.NewConstant(b, 1, ir.I64)
					b.Create(arith.OpCmpI, []*ir.Value{v, v}, []ir.Type{ir.I1})
					fnc.NewReturn(b)
				})
			},
			wantErr: "expects 'predicate' attribute",
		},
		{
			name: "function without sym_name",
			build: func() *ir.Module {
				m := ir.NewModule()
				f := fnc.NewFunc("f", ir.FuncType(nil, nil))
				f.Op.RemoveAttr("sym_name")
				fnc.NewReturn(ir.AtEnd(f.Body()))
				m.Append(f.Op)
				return m
			},
			wantErr: "missing 'sym_name' attribute",
		},
		{
			name: "function entry block arity mismatch",
			build: func() *ir.Module {
				m := ir.NewModule()
				f := fnc.NewFunc("f", ir.FuncType([]ir.Type{ir.I64}, nil))
				f.Body().EraseArg(0)
				fnc.NewReturn(ir.AtEnd(f.Body()))
				m.Append(f.Op)
				return m
			},
			wantErr: "entry block has 0 args, signature has 1 inputs",
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := ir.Verify(tc.build())
			if err == nil {
				t.Fatalf("verifier accepted malformed module (want error containing %q)", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestVerifyAcceptsWellFormed is the positive control for the table above:
// the same construction style, but a valid module.
func TestVerifyAcceptsWellFormed(t *testing.T) {
	m := wrap(func(b *ir.Builder) {
		lb := arith.NewConstant(b, 0, ir.Index)
		ub := arith.NewConstant(b, 4, ir.Index)
		step := arith.NewConstant(b, 1, ir.Index)
		loop := scf.NewFor(b, lb, ub, step)
		bb := ir.AtEnd(loop.Body())
		iv := arith.NewIndexCast(bb, loop.InductionVar(), ir.I64)
		s := accfg.NewSetup(bb, "acc", nil, []accfg.Field{{Name: "i", Value: iv}})
		l := accfg.NewLaunch(bb, s.State())
		accfg.NewAwait(bb, l.Token())
		scf.NewYield(bb)
		fnc.NewReturn(b)
	})
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verifier rejected well-formed module: %v", err)
	}
}
