// Package arith provides the integer arithmetic dialect. The accelerator
// configuration bit-packing sequences the paper analyses (§2.4, Listing 1)
// are expressed with these ops, so their constant folders are what lets the
// compiler collapse packing of compile-time-known fields.
package arith

import (
	"fmt"

	"configwall/internal/ir"
)

// Op names.
const (
	OpConstant  = "arith.constant"
	OpAddI      = "arith.addi"
	OpSubI      = "arith.subi"
	OpMulI      = "arith.muli"
	OpDivUI     = "arith.divui"
	OpRemUI     = "arith.remui"
	OpAndI      = "arith.andi"
	OpOrI       = "arith.ori"
	OpXOrI      = "arith.xori"
	OpShLI      = "arith.shli"
	OpShRUI     = "arith.shrui"
	OpCmpI      = "arith.cmpi"
	OpSelect    = "arith.select"
	OpIndexCast = "arith.index_cast"
)

// Comparison predicates for arith.cmpi, stored in the "predicate" attribute.
const (
	PredEQ  = "eq"
	PredNE  = "ne"
	PredSLT = "slt"
	PredSLE = "sle"
	PredSGT = "sgt"
	PredSGE = "sge"
	PredULT = "ult"
	PredULE = "ule"
)

func init() {
	ir.Register(ir.OpInfo{
		Name:    OpConstant,
		Traits:  []ir.Trait{ir.TraitPure, ir.TraitConstant},
		Summary: "integer constant",
		Verify: func(op *ir.Op) error {
			if op.NumResults() != 1 {
				return fmt.Errorf("expects one result")
			}
			if _, ok := op.Attr("value").(ir.IntegerAttr); !ok {
				return fmt.Errorf("expects integer 'value' attribute")
			}
			return nil
		},
	})
	for _, name := range []string{OpAddI, OpSubI, OpMulI, OpDivUI, OpRemUI, OpAndI, OpOrI, OpXOrI, OpShLI, OpShRUI} {
		name := name
		ir.Register(ir.OpInfo{
			Name:    name,
			Traits:  []ir.Trait{ir.TraitPure},
			Summary: "integer binary op",
			Verify:  verifyBinary,
			Fold:    foldBinary(name),
		})
	}
	ir.Register(ir.OpInfo{
		Name:    OpCmpI,
		Traits:  []ir.Trait{ir.TraitPure},
		Summary: "integer comparison",
		Verify: func(op *ir.Op) error {
			if op.NumOperands() != 2 || op.NumResults() != 1 {
				return fmt.Errorf("expects two operands, one result")
			}
			if _, ok := op.StringAttrValue("predicate"); !ok {
				return fmt.Errorf("expects 'predicate' attribute")
			}
			return nil
		},
		Fold: foldCmp,
	})
	ir.Register(ir.OpInfo{
		Name:    OpSelect,
		Traits:  []ir.Trait{ir.TraitPure},
		Summary: "value select on i1 condition",
		Verify: func(op *ir.Op) error {
			if op.NumOperands() != 3 || op.NumResults() != 1 {
				return fmt.Errorf("expects three operands, one result")
			}
			return nil
		},
		Fold: foldSelect,
	})
	ir.Register(ir.OpInfo{
		Name:    OpIndexCast,
		Traits:  []ir.Trait{ir.TraitPure},
		Summary: "cast between index and integer types",
		Verify: func(op *ir.Op) error {
			if op.NumOperands() != 1 || op.NumResults() != 1 {
				return fmt.Errorf("expects one operand, one result")
			}
			return nil
		},
		Fold: foldIndexCast,
	})
}

func verifyBinary(op *ir.Op) error {
	if op.NumOperands() != 2 || op.NumResults() != 1 {
		return fmt.Errorf("expects two operands, one result")
	}
	if !ir.IsInteger(op.Result(0).Type()) {
		return fmt.Errorf("expects integer result, got %s", op.Result(0).Type())
	}
	return nil
}

// ConstantValue returns the constant integer an SSA value holds, when its
// defining op is an arith.constant.
func ConstantValue(v *ir.Value) (int64, bool) {
	def := v.DefiningOp()
	if def == nil || def.Name() != OpConstant {
		return 0, false
	}
	a, ok := def.Attr("value").(ir.IntegerAttr)
	return a.Value, ok
}

// truncate wraps v to the bit width of type t (two's complement).
func truncate(v int64, t ir.Type) int64 {
	w := ir.IntegerWidth(t)
	if w == 0 || w >= 64 {
		return v
	}
	mask := (int64(1) << uint(w)) - 1
	v &= mask
	// Sign-extend back so i16 constants print as small negatives when set.
	if v&(int64(1)<<uint(w-1)) != 0 {
		v |= ^mask
	}
	return v
}

// Eval computes a binary arith op on constant inputs.
func Eval(opName string, a, b int64, t ir.Type) (int64, error) {
	var r int64
	switch opName {
	case OpAddI:
		r = a + b
	case OpSubI:
		r = a - b
	case OpMulI:
		r = a * b
	case OpDivUI:
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		r = int64(uint64(a) / uint64(b))
	case OpRemUI:
		if b == 0 {
			return 0, fmt.Errorf("remainder by zero")
		}
		r = int64(uint64(a) % uint64(b))
	case OpAndI:
		r = a & b
	case OpOrI:
		r = a | b
	case OpXOrI:
		r = a ^ b
	case OpShLI:
		r = a << uint64(b)
	case OpShRUI:
		r = int64(uint64(a) >> uint64(b))
	default:
		return 0, fmt.Errorf("unknown arith op %s", opName)
	}
	return truncate(r, t), nil
}

// EvalCmp computes an arith.cmpi predicate on constant inputs.
func EvalCmp(pred string, a, b int64) (bool, error) {
	switch pred {
	case PredEQ:
		return a == b, nil
	case PredNE:
		return a != b, nil
	case PredSLT:
		return a < b, nil
	case PredSLE:
		return a <= b, nil
	case PredSGT:
		return a > b, nil
	case PredSGE:
		return a >= b, nil
	case PredULT:
		return uint64(a) < uint64(b), nil
	case PredULE:
		return uint64(a) <= uint64(b), nil
	}
	return false, fmt.Errorf("unknown predicate %q", pred)
}

func foldBinary(name string) func(*ir.Op) (*ir.Value, bool) {
	return func(op *ir.Op) (*ir.Value, bool) {
		a, aOK := ConstantValue(op.Operand(0))
		b, bOK := ConstantValue(op.Operand(1))
		t := op.Result(0).Type()

		// Identity simplifications that do not require both constants.
		if bOK && b == 0 {
			switch name {
			case OpAddI, OpSubI, OpOrI, OpXOrI, OpShLI, OpShRUI:
				return op.Operand(0), false
			case OpMulI, OpAndI:
				// x*0 = 0, x&0 = 0: handled below when a is also known,
				// otherwise materialize via builder-less replacement:
				if op.Block() != nil {
					b := ir.Before(op)
					zero := NewConstant(b, 0, t)
					return zero, false
				}
			}
		}
		if bOK && b == 1 && (name == OpMulI || name == OpDivUI) {
			return op.Operand(0), false
		}
		if aOK && a == 0 && name == OpAddI {
			return op.Operand(1), false
		}
		if !aOK || !bOK {
			return nil, false
		}
		r, err := Eval(name, a, b, t)
		if err != nil {
			return nil, false
		}
		if op.Block() == nil {
			return nil, false
		}
		bld := ir.Before(op)
		return NewConstant(bld, r, t), false
	}
}

func foldCmp(op *ir.Op) (*ir.Value, bool) {
	a, aOK := ConstantValue(op.Operand(0))
	b, bOK := ConstantValue(op.Operand(1))
	if !aOK || !bOK || op.Block() == nil {
		return nil, false
	}
	pred, _ := op.StringAttrValue("predicate")
	r, err := EvalCmp(pred, a, b)
	if err != nil {
		return nil, false
	}
	v := int64(0)
	if r {
		v = 1
	}
	bld := ir.Before(op)
	return NewConstant(bld, v, ir.I1), false
}

func foldSelect(op *ir.Op) (*ir.Value, bool) {
	c, ok := ConstantValue(op.Operand(0))
	if !ok {
		return nil, false
	}
	if c != 0 {
		return op.Operand(1), false
	}
	return op.Operand(2), false
}

func foldIndexCast(op *ir.Op) (*ir.Value, bool) {
	if v, ok := ConstantValue(op.Operand(0)); ok && op.Block() != nil {
		bld := ir.Before(op)
		return NewConstant(bld, v, op.Result(0).Type()), false
	}
	// Cast of a cast back to the original type is the original value.
	def := op.Operand(0).DefiningOp()
	if def != nil && def.Name() == OpIndexCast &&
		ir.TypesEqual(def.Operand(0).Type(), op.Result(0).Type()) {
		return def.Operand(0), false
	}
	return nil, false
}

// NewConstant builds an arith.constant of value v and type t.
func NewConstant(b *ir.Builder, v int64, t ir.Type) *ir.Value {
	op := b.Create(OpConstant, nil, []ir.Type{t})
	op.SetAttr("value", ir.IntegerAttr{Value: truncate(v, t), Type: t})
	return op.Result(0)
}

// NewBinary builds a two-operand arith op producing the type of lhs.
func NewBinary(b *ir.Builder, name string, lhs, rhs *ir.Value) *ir.Value {
	op := b.Create(name, []*ir.Value{lhs, rhs}, []ir.Type{lhs.Type()})
	return op.Result(0)
}

// NewAdd builds lhs + rhs.
func NewAdd(b *ir.Builder, lhs, rhs *ir.Value) *ir.Value { return NewBinary(b, OpAddI, lhs, rhs) }

// NewMul builds lhs * rhs.
func NewMul(b *ir.Builder, lhs, rhs *ir.Value) *ir.Value { return NewBinary(b, OpMulI, lhs, rhs) }

// NewOr builds lhs | rhs.
func NewOr(b *ir.Builder, lhs, rhs *ir.Value) *ir.Value { return NewBinary(b, OpOrI, lhs, rhs) }

// NewShl builds lhs << rhs.
func NewShl(b *ir.Builder, lhs, rhs *ir.Value) *ir.Value { return NewBinary(b, OpShLI, lhs, rhs) }

// NewCmp builds an arith.cmpi with the given predicate.
func NewCmp(b *ir.Builder, pred string, lhs, rhs *ir.Value) *ir.Value {
	op := b.Create(OpCmpI, []*ir.Value{lhs, rhs}, []ir.Type{ir.I1})
	op.SetAttr("predicate", ir.StringAttr{Value: pred})
	return op.Result(0)
}

// NewIndexCast builds an arith.index_cast to type t.
func NewIndexCast(b *ir.Builder, v *ir.Value, t ir.Type) *ir.Value {
	op := b.Create(OpIndexCast, []*ir.Value{v}, []ir.Type{t})
	return op.Result(0)
}

// NewSelect builds an arith.select.
func NewSelect(b *ir.Builder, cond, ifTrue, ifFalse *ir.Value) *ir.Value {
	op := b.Create(OpSelect, []*ir.Value{cond, ifTrue, ifFalse}, []ir.Type{ifTrue.Type()})
	return op.Result(0)
}
