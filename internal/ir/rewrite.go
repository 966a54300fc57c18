package ir

// RewritePattern transforms one op kind. Match must be side-effect free;
// Rewrite may mutate the IR using the provided builder, which is positioned
// before the matched op.
type RewritePattern interface {
	// OpName returns the op name this pattern anchors on, or "" for any op.
	OpName() string
	// MatchAndRewrite attempts the rewrite and reports whether it changed
	// the IR.
	MatchAndRewrite(op *Op, b *Builder) bool
}

// PatternFunc adapts a function to the RewritePattern interface.
type PatternFunc struct {
	Anchor string
	Fn     func(op *Op, b *Builder) bool
}

// OpName returns the anchor op name.
func (p PatternFunc) OpName() string { return p.Anchor }

// MatchAndRewrite invokes the wrapped function.
func (p PatternFunc) MatchAndRewrite(op *Op, b *Builder) bool { return p.Fn(op, b) }

// ApplyPatternsGreedy repeatedly applies patterns across the op subtree until
// a fixpoint, folding and dead-code-eliminating along the way (like MLIR's
// greedy pattern rewrite driver). Returns whether anything changed.
func ApplyPatternsGreedy(root *Op, patterns []RewritePattern) bool {
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
				continue // erased by an earlier pattern this round
			}
			if tryFold(op) {
				changed = true
				continue
			}
			for _, p := range patterns {
				if p.OpName() != "" && p.OpName() != op.Name() {
					continue
				}
				b := Before(op)
				if p.MatchAndRewrite(op, b) {
					changed = true
					break
				}
			}
		}
		if eraseTriviallyDead(root) {
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
// iterating until fixpoint within the subtree. Returns whether anything was
// erased.
func eraseTriviallyDead(root *Op) bool {
	erased := false
	var dead []*Op
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
