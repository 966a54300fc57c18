package ir

import (
	"fmt"
)

// Verify checks structural IR invariants over the whole module:
//
//   - operands/results are non-nil and use lists are consistent in both
//     directions: every operand is recorded in its value's use list, and
//     every recorded use names an op of this module whose slot holds the
//     value,
//   - every operand is visible at its use site (defined earlier in the same
//     block, or in a lexically enclosing block — the structured-control-flow
//     dominance rule), unless the enclosing op is isolated-from-above,
//   - per-op verifiers registered in the dialect registry pass.
//
// It reads the IR in place and allocates nothing on a well-formed module.
// Visibility is decided through Op.IsBefore, which may renumber a block, so
// like every other access Verify needs the module to itself.
func Verify(m *Module) error { return VerifyOp(m.Op()) }

// VerifyOp checks the invariants for one op subtree. Values defined outside
// the subtree are not visible inside it.
func VerifyOp(root *Op) error {
	top := root
	for p := root.ParentOp(); p != nil; p = p.ParentOp() {
		top = p
	}
	return verifyOp(root, root, top)
}

// verifyOp checks op and everything nested in it. root bounds visibility
// (the subtree being verified); top is root's outermost ancestor, which
// every op recorded as a user must still hang from.
//
//cwlint:hotpath
func verifyOp(op, root, top *Op) error {
	for i, operand := range op.operands {
		if operand == nil {
			return fmt.Errorf("op %s: operand %d is nil", op.name, i)
		}
		if !visibleAt(operand, op, root) {
			return fmt.Errorf("op %s: operand %d (%s) is not visible at use site (dominance violation)", op.name, i, operand.typ)
		}
		// Use-list consistency, operand -> use.
		found := false
		for _, u := range operand.uses {
			if u.Op == op && u.Index == i {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("op %s: operand %d missing from use list", op.name, i)
		}
	}
	if op.kind != nil && op.kind.Verify != nil {
		if err := op.kind.Verify(op); err != nil {
			return fmt.Errorf("op %s: %w", op.name, err)
		}
	}
	for _, r := range op.results {
		if err := verifyUses(r, top); err != nil {
			return err
		}
	}
	for _, region := range op.regions {
		blk := &region.block
		for _, a := range blk.args {
			if err := verifyUses(a, top); err != nil {
				return err
			}
		}
		for o := blk.first; o != nil; o = o.next {
			if err := verifyOp(o, root, top); err != nil {
				return err
			}
		}
		if err := verifyTerminator(op, blk); err != nil {
			return err
		}
	}
	return nil
}

// visibleAt reports whether v may be read by user, an op inside root's
// subtree: climb from user to the ancestor that sits in v's defining block
// — without leaving root or crossing an isolated-from-above op — and ask
// whether v is defined before it. An op's own results are visible inside
// its regions (an scf.for result is not, by convention, used there, but
// nothing structural forbids it).
func visibleAt(v *Value, user, root *Op) bool {
	defBlock := v.owner
	if v.def != nil {
		defBlock = v.def.parent
	}
	a := user
	for {
		if a == v.def {
			return a != user
		}
		if a == root {
			return false
		}
		if a.parent == defBlock {
			return v.def == nil || v.def.IsBefore(a)
		}
		a = a.ParentOp()
		if a == nil || a.kind != nil && a.kind.HasTrait(TraitIsolated) {
			return false
		}
	}
}

// verifyUses checks use-list consistency in the use -> operand direction:
// every use v records must name an op that hangs from top and whose slot
// holds v. A stale entry keeps a dead producer alive; a use by an unlinked
// op makes ReplaceAllUsesWith write outside the module.
func verifyUses(v *Value, top *Op) error {
	for _, u := range v.uses {
		if u.Op == nil {
			return fmt.Errorf("%s records a use by a nil op", describeValue(v))
		}
		if u.Index < 0 || u.Index >= len(u.Op.operands) {
			return fmt.Errorf("%s records a use as operand %d of %s, which has %d operands (stale use-list entry)", describeValue(v), u.Index, u.Op.name, len(u.Op.operands))
		}
		if u.Op.operands[u.Index] != v {
			return fmt.Errorf("%s records a use as operand %d of %s, which holds another value (stale use-list entry)", describeValue(v), u.Index, u.Op.name)
		}
		if !top.IsAncestorOf(u.Op) {
			return fmt.Errorf("%s is used by operand %d of %s, which is detached from the module (removed without Erase)", describeValue(v), u.Index, u.Op.name)
		}
	}
	return nil
}

// describeValue names a value by its definition, for diagnostics.
func describeValue(v *Value) string {
	if v.def != nil {
		return fmt.Sprintf("op %s: result %d", v.def.name, v.index)
	}
	owner := "<detached block>"
	if p := v.owner.ParentOp(); p != nil {
		owner = p.name
	}
	return fmt.Sprintf("op %s: block argument %d", owner, v.index)
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
