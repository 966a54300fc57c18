// Package fnc provides function definition, call and return ops (MLIR's
// func dialect; named fnc because "func" is a Go keyword).
package fnc

import (
	"fmt"

	"configwall/internal/ir"
)

// Op names.
const (
	OpFunc   = "fnc.func"
	OpReturn = "fnc.return"
	OpCall   = "fnc.call"
)

func init() {
	ir.Register(ir.OpInfo{
		Name:    OpFunc,
		Traits:  []ir.Trait{ir.TraitIsolated},
		Summary: "function definition",
		Verify: func(op *ir.Op) error {
			if _, ok := op.StringAttrValue("sym_name"); !ok {
				return fmt.Errorf("missing 'sym_name' attribute")
			}
			ta, ok := op.Attr("function_type").(ir.TypeAttr)
			if !ok {
				return fmt.Errorf("missing 'function_type' attribute")
			}
			ft, ok := ta.Type.(ir.FunctionType)
			if !ok {
				return fmt.Errorf("'function_type' must be a function type")
			}
			if op.NumRegions() != 1 {
				return fmt.Errorf("needs exactly one region")
			}
			body := op.Region(0).Block()
			if body.NumArgs() != len(ft.In) {
				return fmt.Errorf("entry block has %d args, signature has %d inputs", body.NumArgs(), len(ft.In))
			}
			return nil
		},
	})
	ir.Register(ir.OpInfo{
		Name:    OpReturn,
		Traits:  []ir.Trait{ir.TraitTerminator},
		Summary: "return from function",
	})
	ir.Register(ir.OpInfo{
		Name:    OpCall,
		Summary: "call a function by symbol",
		Verify: func(op *ir.Op) error {
			if _, ok := op.Attr("callee").(ir.SymbolRefAttr); !ok {
				return fmt.Errorf("missing 'callee' symbol attribute")
			}
			return nil
		},
	})
}

// Func is a structured view over a fnc.func op.
type Func struct {
	Op *ir.Op
}

// AsFunc wraps op, or returns ok=false when op is not fnc.func.
func AsFunc(op *ir.Op) (Func, bool) {
	if op == nil || op.Name() != OpFunc {
		return Func{}, false
	}
	return Func{op}, true
}

// Name returns the function's symbol name.
func (f Func) Name() string {
	n, _ := f.Op.StringAttrValue("sym_name")
	return n
}

// Type returns the function signature.
func (f Func) Type() ir.FunctionType {
	ta := f.Op.Attr("function_type").(ir.TypeAttr)
	return ta.Type.(ir.FunctionType)
}

// Body returns the function body block.
func (f Func) Body() *ir.Block { return f.Op.Region(0).Block() }

// NewFunc builds a fnc.func with the given name and signature; the entry
// block receives one argument per input type.
func NewFunc(name string, ft ir.FunctionType) Func {
	op := ir.NewOp(OpFunc, nil, nil)
	op.SetAttr("sym_name", ir.StrAttr(name))
	op.SetAttr("function_type", ir.TypeAttr{Type: ft})
	r := op.AddRegion()
	for _, t := range ft.In {
		r.Block().AddArg(t)
	}
	return Func{op}
}

// NewReturn terminates a function body.
func NewReturn(b *ir.Builder, values ...*ir.Value) *ir.Op {
	return b.Create(OpReturn, values, nil)
}

// NewCall builds a call to the named function.
func NewCall(b *ir.Builder, callee string, args []*ir.Value, results []ir.Type) *ir.Op {
	op := b.Create(OpCall, args, results)
	op.SetAttr("callee", ir.SymbolRefAttr{Symbol: callee})
	return op
}
