package ir

// ApplyPatternsGreedy folds and dead-code-eliminates across the op subtree
// until a fixpoint (like MLIR's greedy pattern rewrite driver with only the
// registered folders). Returns whether anything changed.
func ApplyPatternsGreedy(root *Op) bool {
	changedEver := false
	ops := make([]*Op, 0, countNested(root))
	for iter := 0; iter < 100; iter++ {
		changed := false
		ops = ops[:0]
		Walk(root, func(op *Op) {
			if op != root {
				ops = append(ops, op)
			}
		})
		for _, op := range ops {
			if op.Block() == nil {
				continue // erased by an earlier fold this round
			}
			if tryFold(op) {
				changed = true
			}
		}
		if eraseTriviallyDead(root, ops) {
			changed = true
		}
		if !changed {
			return changedEver
		}
		changedEver = true
	}
	return changedEver
}

// tryFold invokes the registered folder for op, which has one result. When
// the folder produces a replacement value, op's result is replaced and op
// erased.
func tryFold(op *Op) bool {
	if op.HasAttr("volatile") {
		// Volatile ops model the paper's volatile-asm baseline: the
		// compiler must emit them verbatim, so no folding either.
		return false
	}
	if op.kind == nil || op.kind.Fold == nil || len(op.results) != 1 {
		return false
	}
	repl, inPlace := op.kind.Fold(op)
	if inPlace {
		return true
	}
	if repl == nil {
		return false
	}
	op.results[0].ReplaceAllUsesWith(repl)
	op.Erase()
	return true
}

// eraseTriviallyDead removes pure ops whose results are all unused,
// iterating until fixpoint within the subtree, and collects them in buf,
// whose contents it overwrites. Returns whether anything was erased.
func eraseTriviallyDead(root *Op, buf []*Op) bool {
	erased := false
	dead := buf[:0]
	for {
		dead = dead[:0]
		Walk(root, func(op *Op) {
			if op == root || op.Block() == nil {
				return
			}
			if !IsPure(op) || op.hasUses() {
				return
			}
			dead = append(dead, op)
		})
		if len(dead) == 0 {
			return erased
		}
		// Erase in reverse walk order so users die before producers.
		for i := len(dead) - 1; i >= 0; i-- {
			op := dead[i]
			if op.Block() != nil && !op.hasUses() {
				op.Erase()
				erased = true
			}
		}
	}
}

// hasUses reports whether any result of op is read.
func (op *Op) hasUses() bool {
	for _, r := range op.results {
		if len(r.uses) > 0 {
			return true
		}
	}
	return false
}
