package passes

import (
	"fmt"

	"configwall/internal/ir"
)

// Inline returns the function-inlining pass. The paper's outlook (§8) calls
// for reasoning about accelerator state across function call boundaries;
// inlining module-local callees is the simplest sound answer: after
// inlining, the state-tracing pass sees one straight-line region and the
// call no longer acts as a conservative clobber (§5.3).
//
// A call is inlined when the callee is defined in the module, its body is a
// single block ending in fnc.return, and it is not (transitively)
// recursive. Calls to external functions are left alone — they keep their
// clobber-all semantics unless annotated with #accfg.effects<none>.
func Inline() ir.Pass {
	return ir.PassFunc{
		PassName: "inline",
		Fn: func(m *ir.Module) error {
			// Iterate to a fixpoint so call chains collapse; the recursion
			// guard bounds the iteration count.
			for i := 0; i < 32; i++ {
				call := findInlinableCall(m)
				if call == nil {
					return nil
				}
				if err := inlineCall(m, call); err != nil {
					return err
				}
			}
			return fmt.Errorf("inline: call graph too deep or cyclic")
		},
	}
}

func findInlinableCall(m *ir.Module) *ir.Op {
	var found *ir.Op
	m.Walk(func(op *ir.Op) {
		if found != nil || op.Name() != "fnc.call" {
			return
		}
		callee := calleeOf(m, op)
		if callee == nil {
			return
		}
		if callsSelf(callee) {
			return
		}
		found = op
	})
	return found
}

func calleeOf(m *ir.Module, call *ir.Op) *ir.Op {
	sym, ok := call.Attr("callee").(ir.SymbolRefAttr)
	if !ok {
		return nil
	}
	return m.FindFunc(sym.Symbol)
}

// callsSelf reports whether f contains a call to its own symbol (direct
// recursion; mutual recursion is caught by the fixpoint bound).
func callsSelf(f *ir.Op) bool {
	name, _ := f.StringAttrValue("sym_name")
	recursive := false
	ir.Walk(f, func(op *ir.Op) {
		if op.Name() != "fnc.call" {
			return
		}
		if sym, ok := op.Attr("callee").(ir.SymbolRefAttr); ok && sym.Symbol == name {
			recursive = true
		}
	})
	return recursive
}

func inlineCall(m *ir.Module, call *ir.Op) error {
	callee := calleeOf(m, call)
	body := callee.Region(0).Block()
	ret := body.Last()
	if ret == nil || ret.Name() != "fnc.return" {
		return fmt.Errorf("inline: callee %v does not end in fnc.return", callee.Attr("sym_name"))
	}
	if body.NumArgs() != call.NumOperands() {
		return fmt.Errorf("inline: call passes %d arguments, callee takes %d", call.NumOperands(), body.NumArgs())
	}
	if ret.NumOperands() != call.NumResults() {
		return fmt.Errorf("inline: callee returns %d values, call expects %d", ret.NumOperands(), call.NumResults())
	}

	mapping := map[*ir.Value]*ir.Value{}
	for i := 0; i < body.NumArgs(); i++ {
		mapping[body.Arg(i)] = call.Operand(i)
	}
	b := ir.Before(call)
	for op := body.First(); op != nil && op != ret; op = op.Next() {
		b.Insert(op.Clone(mapping))
	}
	for i := 0; i < call.NumResults(); i++ {
		v := ret.Operand(i)
		if mv, ok := mapping[v]; ok {
			v = mv
		}
		call.Result(i).ReplaceAllUsesWith(v)
	}
	call.Erase()
	return nil
}
