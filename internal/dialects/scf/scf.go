// Package scf provides structured control flow: counted loops with
// iteration arguments and if/else, mirroring MLIR's scf dialect. The accfg
// state-tracing and overlap passes (paper §5.3–§5.5) operate on these ops.
package scf

import (
	"fmt"

	"configwall/internal/ir"
)

// Op names.
const (
	OpFor   = "scf.for"
	OpIf    = "scf.if"
	OpYield = "scf.yield"
)

func init() {
	ir.Register(ir.OpInfo{
		Name:    OpFor,
		Summary: "counted loop with iteration arguments",
		Verify:  verifyFor,
	})
	ir.Register(ir.OpInfo{
		Name:    OpIf,
		Summary: "if/else with yielded results",
		Verify:  verifyIf,
	})
	ir.Register(ir.OpInfo{
		Name:    OpYield,
		Traits:  []ir.Trait{ir.TraitTerminator},
		Summary: "region terminator yielding values to the parent op",
	})
}

func verifyFor(op *ir.Op) error {
	if op.NumOperands() < 3 {
		return fmt.Errorf("needs lb, ub, step operands")
	}
	if op.NumRegions() != 1 {
		return fmt.Errorf("needs exactly one region")
	}
	body := op.Region(0).Block()
	nIter := op.NumOperands() - 3
	if body.NumArgs() != nIter+1 {
		return fmt.Errorf("body needs %d args (iv + %d iter args), has %d", nIter+1, nIter, body.NumArgs())
	}
	if op.NumResults() != nIter {
		return fmt.Errorf("needs %d results to match iter args, has %d", nIter, op.NumResults())
	}
	for i := 0; i < nIter; i++ {
		initT := op.Operand(3 + i).Type()
		argT := body.Arg(1 + i).Type()
		resT := op.Result(i).Type()
		if !ir.TypesEqual(initT, argT) || !ir.TypesEqual(argT, resT) {
			return fmt.Errorf("iter arg %d type mismatch: init %s, arg %s, result %s", i, initT, argT, resT)
		}
	}
	y := body.Last()
	if y != nil && y.Name() == OpYield && y.NumOperands() != nIter {
		return fmt.Errorf("yield carries %d values, loop has %d iter args", y.NumOperands(), nIter)
	}
	return nil
}

func verifyIf(op *ir.Op) error {
	if op.NumOperands() != 1 {
		return fmt.Errorf("needs exactly the condition operand")
	}
	if !ir.TypesEqual(op.Operand(0).Type(), ir.I1) {
		return fmt.Errorf("condition must be i1, got %s", op.Operand(0).Type())
	}
	if op.NumRegions() != 2 {
		return fmt.Errorf("needs then and else regions")
	}
	for ri := 0; ri < 2; ri++ {
		y := op.Region(ri).Block().Last()
		if y == nil {
			return fmt.Errorf("region %d missing yield", ri)
		}
		if y.Name() == OpYield && y.NumOperands() != op.NumResults() {
			return fmt.Errorf("region %d yields %d values, op has %d results", ri, y.NumOperands(), op.NumResults())
		}
	}
	return nil
}

// For is a structured view over an scf.for op.
type For struct {
	Op *ir.Op
}

// AsFor wraps op, or returns ok=false when op is not scf.for.
func AsFor(op *ir.Op) (For, bool) {
	if op == nil || op.Name() != OpFor {
		return For{}, false
	}
	return For{op}, true
}

// Lower bound, upper bound and step operands.
func (f For) LowerBound() *ir.Value { return f.Op.Operand(0) }

// UpperBound returns the loop upper bound operand.
func (f For) UpperBound() *ir.Value { return f.Op.Operand(1) }

// Step returns the loop step operand.
func (f For) Step() *ir.Value { return f.Op.Operand(2) }

// NumIterArgs returns the number of loop-carried values.
func (f For) NumIterArgs() int { return f.Op.NumOperands() - 3 }

// InitArg returns the i-th initial loop-carried value.
func (f For) InitArg(i int) *ir.Value { return f.Op.Operand(3 + i) }

// Body returns the loop body block.
func (f For) Body() *ir.Block { return f.Op.Region(0).Block() }

// InductionVar returns the loop induction variable block argument.
func (f For) InductionVar() *ir.Value { return f.Body().Arg(0) }

// IterArg returns the i-th loop-carried block argument.
func (f For) IterArg(i int) *ir.Value { return f.Body().Arg(1 + i) }

// Yield returns the loop body's terminating scf.yield.
func (f For) Yield() *ir.Op { return f.Body().Last() }

// AddIterArg extends the loop with a new loop-carried value: init is passed
// in, yielded is produced each iteration, and a new result is added.
// Returns (bodyArg, result).
func (f For) AddIterArg(init, yielded *ir.Value) (*ir.Value, *ir.Value) {
	f.Op.AddOperand(init)
	arg := f.Body().AddArg(init.Type())
	f.Yield().AddOperand(yielded)
	res := f.Op.AddResult(init.Type())
	return arg, res
}

// If is a structured view over an scf.if op.
type If struct {
	Op *ir.Op
}

// Condition returns the i1 condition operand.
func (i If) Condition() *ir.Value { return i.Op.Operand(0) }

// Then returns the then-region block.
func (i If) Then() *ir.Block { return i.Op.Region(0).Block() }

// Else returns the else-region block.
func (i If) Else() *ir.Block { return i.Op.Region(1).Block() }

// NewFor builds an scf.for with the given bounds and initial iteration
// arguments. The body receives the induction variable plus one argument per
// iter arg; the caller must terminate the body with NewYield.
func NewFor(b *ir.Builder, lb, ub, step *ir.Value, initArgs ...*ir.Value) For {
	operands := append([]*ir.Value{lb, ub, step}, initArgs...)
	resTypes := make([]ir.Type, len(initArgs))
	for i, a := range initArgs {
		resTypes[i] = a.Type()
	}
	op := b.Create(OpFor, operands, resTypes)
	region := op.AddRegion()
	region.Block().AddArg(lb.Type()) // induction variable
	for _, a := range initArgs {
		region.Block().AddArg(a.Type())
	}
	return For{op}
}

// NewIf builds an scf.if with empty then/else regions and the given result
// types. Both regions must be terminated with NewYield by the caller.
func NewIf(b *ir.Builder, cond *ir.Value, resultTypes ...ir.Type) If {
	op := b.Create(OpIf, []*ir.Value{cond}, resultTypes)
	op.AddRegion()
	op.AddRegion()
	return If{op}
}

// NewYield terminates a structured-control-flow region.
func NewYield(b *ir.Builder, values ...*ir.Value) *ir.Op {
	return b.Create(OpYield, values, nil)
}
