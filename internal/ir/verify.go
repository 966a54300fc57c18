package ir

import (
	"fmt"
)

// Verify checks structural IR invariants over the whole module:
//
//   - operands/results are non-nil and use lists are consistent,
//   - every operand is visible at its use site (defined earlier in the same
//     block, or in a lexically enclosing block — the structured-control-flow
//     dominance rule), unless the enclosing op is isolated-from-above,
//   - per-op verifiers registered in the dialect registry pass.
func Verify(m *Module) error { return VerifyOp(m.Op()) }

// VerifyOp checks the invariants for one op subtree.
func VerifyOp(root *Op) error {
	visible := map[*Value]bool{}
	return verifyOp(root, visible)
}

func verifyOp(op *Op, visible map[*Value]bool) error {
	for i, operand := range op.Operands() {
		if operand == nil {
			return fmt.Errorf("op %s: operand %d is nil", op.Name(), i)
		}
		if !visible[operand] {
			return fmt.Errorf("op %s: operand %d (%s) is not visible at use site (dominance violation)", op.Name(), i, operand.Type())
		}
		// Use-list consistency.
		found := false
		for _, u := range operand.Uses() {
			if u.Op == op && u.Index == i {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("op %s: operand %d missing from use list", op.Name(), i)
		}
	}
	if op.kind != nil && op.kind.Verify != nil {
		if err := op.kind.Verify(op); err != nil {
			return fmt.Errorf("op %s: %w", op.Name(), err)
		}
	}
	for _, r := range op.Results() {
		visible[r] = true
	}
	isolated := op.kind != nil && op.kind.HasTrait(TraitIsolated)
	for ri := 0; ri < op.NumRegions(); ri++ {
		blk := op.Region(ri).Block()
		var scope map[*Value]bool
		if isolated {
			scope = map[*Value]bool{}
		} else {
			scope = map[*Value]bool{}
			for v := range visible {
				scope[v] = true
			}
		}
		for _, a := range blk.Args() {
			scope[a] = true
		}
		for _, o := range blk.Ops() {
			if err := verifyOp(o, scope); err != nil {
				return err
			}
		}
		if err := verifyTerminator(op, blk); err != nil {
			return err
		}
	}
	return nil
}

func verifyTerminator(parent *Op, blk *Block) error {
	// Structured-control-flow ops require their block to end in a
	// terminator. The module body is exempt.
	switch parent.Name() {
	case "builtin.module":
		return nil
	}
	last := blk.Last()
	if last == nil {
		return fmt.Errorf("op %s: empty region body (missing terminator)", parent.Name())
	}
	if !IsTerminator(last) {
		return fmt.Errorf("op %s: region does not end in a terminator (ends in %s)", parent.Name(), last.Name())
	}
	for o := blk.First(); o != last; o = o.Next() {
		if IsTerminator(o) {
			return fmt.Errorf("op %s: terminator %s in the middle of a block", parent.Name(), o.Name())
		}
	}
	return nil
}
