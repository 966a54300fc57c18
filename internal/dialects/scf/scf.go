// Package scf provides structured control flow: counted loops with
// iteration arguments and if/else, mirroring MLIR's scf dialect. The accfg
// state-tracing and overlap passes (paper §5.3–§5.5) operate on these ops.
package scf

import (
	"fmt"
	"math"

	"configwall/internal/dialects/arith"
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

// For is a structured view over an scf.for op. It and If are the only code
// that indexes a loop or a branch: carried value i is operand 3+i, body
// argument 1+i, yield operand i and result i (DESIGN.md §1, "Structured
// control flow").
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

// Carried reports which loop carries v, and at which index: v is the
// loop's i-th body argument after the induction variable, or its i-th
// result.
func Carried(v *ir.Value) (f For, i int, ok bool) {
	if v.IsBlockArg() {
		f, ok = AsFor(v.OwnerBlock().ParentOp())
		return f, v.ResultIndex() - 1, ok && v.ResultIndex() > 0
	}
	f, ok = AsFor(v.DefiningOp())
	return f, v.ResultIndex(), ok
}

// Lower bound, upper bound and step operands.
func (f For) LowerBound() *ir.Value { return f.Op.Operand(0) }

// UpperBound returns the loop upper bound operand.
func (f For) UpperBound() *ir.Value { return f.Op.Operand(1) }

// Step returns the loop step operand.
func (f For) Step() *ir.Value { return f.Op.Operand(2) }

// TripCount returns how often a loop from lb up to ub by step runs: zero
// when ub <= lb, and ok=false for a step that never gets there. The
// distance is taken unsigned, so no pair of bounds overflows it.
func TripCount(lb, ub, step int64) (n int64, ok bool) {
	if step <= 0 {
		return 0, false
	}
	if ub <= lb {
		return 0, true
	}
	trips := (uint64(ub)-uint64(lb)-1)/uint64(step) + 1
	return int64(min(trips, math.MaxInt64)), true
}

// ConstantTripCount returns the loop's trip count when its bounds and step
// are arith.constant results and the step is positive.
func (f For) ConstantTripCount() (n int64, ok bool) {
	lb, okL := arith.ConstantValue(f.LowerBound())
	ub, okU := arith.ConstantValue(f.UpperBound())
	step, okS := arith.ConstantValue(f.Step())
	if !okL || !okU || !okS {
		return 0, false
	}
	return TripCount(lb, ub, step)
}

// NumIterArgs returns the number of loop-carried values.
func (f For) NumIterArgs() int { return f.Op.NumOperands() - 3 }

// InitArg returns the i-th initial loop-carried value.
func (f For) InitArg(i int) *ir.Value { return f.Op.Operand(3 + i) }

// SetInitArg replaces the i-th initial loop-carried value.
func (f For) SetInitArg(i int, v *ir.Value) { f.Op.SetOperand(3+i, v) }

// EraseInitArg removes the i-th initial value and nothing else: the body
// argument, yield operand and result that go with it are the caller's to
// erase once nothing uses them (lower.StripAccfgTypes does, in phases).
func (f For) EraseInitArg(i int) { f.Op.EraseOperand(3 + i) }

// Body returns the loop body block.
func (f For) Body() *ir.Block { return f.Op.Region(0).Block() }

// InductionVar returns the loop induction variable block argument.
func (f For) InductionVar() *ir.Value { return f.Body().Arg(0) }

// IterArg returns the i-th loop-carried block argument.
func (f For) IterArg(i int) *ir.Value { return f.Body().Arg(1 + i) }

// Result returns the i-th loop-carried value after the loop.
func (f For) Result(i int) *ir.Value { return f.Op.Result(i) }

// Yield returns the loop body's terminating scf.yield, or nil when the
// body ends in anything else.
func (f For) Yield() *ir.Op { return yieldOf(f.Body()) }

// Yielded returns the value the body passes to the next iteration for
// carried value i, or nil when the body has no yield that carries it.
func (f For) Yielded(i int) *ir.Value {
	if y := f.Yield(); y != nil && i < y.NumOperands() {
		return y.Operand(i)
	}
	return nil
}

func yieldOf(b *ir.Block) *ir.Op {
	if y := b.Last(); y != nil && y.Name() == OpYield {
		return y
	}
	return nil
}

// AddIterArg extends the loop with a new loop-carried value: init is passed
// in, yielded is produced each iteration, and a new result is added. A nil
// yielded leaves the yield operand to the caller, who appends it to Yield()
// once it has computed it from the new body argument (state tracing does).
// Returns (bodyArg, result).
func (f For) AddIterArg(init, yielded *ir.Value) (*ir.Value, *ir.Value) {
	f.Op.AddOperand(init)
	arg := f.Body().AddArg(init.Type())
	if yielded != nil {
		f.Yield().AddOperand(yielded)
	}
	res := f.Op.AddResult(init.Type())
	return arg, res
}

// InlineOnce replaces the loop by one copy of its body in front of it —
// the induction variable bound to the lower bound, the carried values to
// their initial values, the results to what that one iteration yields —
// and erases the loop.
func (f For) InlineOnce() {
	body, yield := f.Body(), f.Yield()
	mapping := map[*ir.Value]*ir.Value{f.InductionVar(): f.LowerBound()}
	for i := 0; i < f.NumIterArgs(); i++ {
		mapping[f.IterArg(i)] = f.InitArg(i)
	}
	b := ir.Before(f.Op)
	for op := body.First(); op != nil && op != yield; op = op.Next() {
		b.Clone(op, mapping)
	}
	for i := 0; i < f.NumIterArgs(); i++ {
		y := f.Yielded(i)
		if m, ok := mapping[y]; ok {
			y = m
		}
		f.Result(i).ReplaceAllUsesWith(y)
	}
	f.Op.Erase()
}

// If is a structured view over an scf.if op: result i is operand i of both
// regions' yields.
type If struct {
	Op *ir.Op
}

// AsIf wraps op, or returns ok=false when op is not scf.if.
func AsIf(op *ir.Op) (If, bool) {
	if op == nil || op.Name() != OpIf {
		return If{}, false
	}
	return If{op}, true
}

// Condition returns the i1 condition operand.
func (i If) Condition() *ir.Value { return i.Op.Operand(0) }

// Then returns the then-region block.
func (i If) Then() *ir.Block { return i.Op.Region(0).Block() }

// Else returns the else-region block.
func (i If) Else() *ir.Block { return i.Op.Region(1).Block() }

// ThenYield returns the then-region's terminating scf.yield, or nil when
// the region ends in anything else.
func (i If) ThenYield() *ir.Op { return yieldOf(i.Then()) }

// ElseYield returns the else-region's terminating scf.yield, or nil.
func (i If) ElseYield() *ir.Op { return yieldOf(i.Else()) }

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
