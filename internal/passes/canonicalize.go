// Package passes implements the compiler passes of the paper's pipeline
// (Figure 8): generic cleanups (canonicalize, CSE, LICM) that regular MLIR
// provides, plus the accfg-specific passes that form the paper's
// contribution — state tracing (§5.3), configuration deduplication (§5.4),
// setup hoisting through control flow (§5.4.1) and configuration overlap
// (§5.5).
package passes

import (
	"strconv"
	"strings"

	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

// Canonicalize returns a pass that runs every op's registered folder and
// erases dead pure ops, to a fixpoint.
func Canonicalize() ir.Pass { return canonicalizePass }

// canonicalizePass holds no state: one value serves every pipeline.
var canonicalizePass ir.Pass = ir.PassFunc{
	PassName: "canonicalize",
	Fn: func(m *ir.Module) error {
		ir.ApplyPatternsGreedy(m.Op())
		return nil
	},
}

// CSE returns the common-subexpression-elimination pass. The paper relies on
// CSE to make SSA-value equality a usable proxy for runtime-value equality
// during configuration deduplication (§5.4).
func CSE() ir.Pass { return csePass }

// csePass holds no state: one value serves every pipeline.
var csePass ir.Pass = ir.PassFunc{
	PassName: "cse",
	Fn: func(m *ir.Module) error {
		n := ir.CountOps(m)
		c := cse{seen: make(map[string]*ir.Op, n), ids: make(map[*ir.Value]int, n)}
		for f := range m.Funcs {
			c.block(f.Region(0).Block())
			c.leave(0)
		}
		return nil
	},
}

// cse is the state of one CSE run: the table of available expressions,
// scoped like MLIR's — a nested region sees what its enclosing scopes
// defined before it and nothing leaks back out. It is one map for the whole
// run; trail records the keys each open scope added so that leaving the
// scope can take them out again.
type cse struct {
	seen  map[string]*ir.Op
	trail []string
	ids   map[*ir.Value]int // operand identity: values numbered on first sight
	key   []byte            // scratch for the key being built
	// keys holds the text of every key in seen, back to back: a key is a
	// substring of it, so entering one costs no allocation of its own.
	// Written bytes never change, and growing the buffer leaves earlier
	// keys on the old one.
	keys strings.Builder
}

// opKey builds the structural key of a pure op into c.key: name, operand
// identities, attributes and result types.
//
//cwlint:hotpath
func (c *cse) opKey(op *ir.Op) {
	k := append(c.key[:0], op.Name()...)
	k = append(k, '(')
	for i := 0; i < op.NumOperands(); i++ {
		v := op.Operand(i)
		id, ok := c.ids[v]
		if !ok {
			id = len(c.ids)
			c.ids[v] = id
		}
		k = strconv.AppendInt(k, int64(id), 10)
		k = append(k, ',')
	}
	k = append(k, ')')
	for i := 0; i < op.NumAttrs(); i++ {
		name, attr := op.AttrAt(i)
		k = append(k, '{')
		k = append(k, name...)
		k = append(k, '=')
		if a, ok := attr.(ir.IntegerAttr); ok {
			// The one attribute every constant carries: spell it here
			// rather than through a String per op per run.
			k = strconv.AppendInt(k, a.Value, 10)
			k = append(k, " : "...)
			k = append(k, a.Type.String()...)
		} else {
			k = append(k, attr.String()...)
		}
		k = append(k, '}')
	}
	for i := 0; i < op.NumResults(); i++ {
		k = append(k, op.Result(i).Type().String()...)
		k = append(k, ';')
	}
	c.key = k
}

// block deduplicates pure ops in a block against the table, descending
// into regions with a scope each. It erases only the op it is looking at,
// so reading the successor first is enough.
func (c *cse) block(b *ir.Block) {
	var next *ir.Op
	for op := b.First(); op != nil; op = next {
		next = op.Next()
		if ir.IsPure(op) && op.NumRegions() == 0 && op.NumResults() > 0 {
			c.opKey(op)
			if prev, ok := c.seen[string(c.key)]; ok {
				for i := 0; i < op.NumResults(); i++ {
					op.Result(i).ReplaceAllUsesWith(prev.Result(i))
				}
				op.Erase()
				continue
			}
			c.keys.Write(c.key)
			all := c.keys.String()
			key := all[len(all)-len(c.key):]
			c.seen[key] = op
			c.trail = append(c.trail, key)
		}
		for ri := 0; ri < op.NumRegions(); ri++ {
			mark := len(c.trail)
			c.block(op.Region(ri).Block())
			c.leave(mark)
		}
	}
}

// leave closes a scope: every key added since the trail was mark long goes.
func (c *cse) leave(mark int) {
	for _, key := range c.trail[mark:] {
		delete(c.seen, key)
	}
	c.trail = c.trail[:mark]
}

// LICM returns the loop-invariant-code-motion pass: pure ops inside scf.for
// whose operands are all defined outside the loop move in front of it.
func LICM() ir.Pass { return licmPass }

// licmPass holds no state: one value serves every pipeline.
var licmPass ir.Pass = ir.PassFunc{
	PassName: "licm",
	Fn: func(m *ir.Module) error {
		for f := range m.Funcs {
			// Iterate to a fixpoint so chains of invariant ops hoist.
			for licmWalk(f.Region(0).Block()) {
			}
		}
		return nil
	},
}

func licmWalk(b *ir.Block) bool {
	changed := false
	// Hoisted ops land in front of op, behind this loop.
	for op := b.First(); op != nil; op = op.Next() {
		for ri := 0; ri < op.NumRegions(); ri++ {
			if licmWalk(op.Region(ri).Block()) {
				changed = true
			}
		}
		loop, ok := scf.AsFor(op)
		if !ok {
			continue
		}
		body := loop.Body()
		var next *ir.Op
		for inner := body.First(); inner != nil; inner = next {
			next = inner.Next()
			if inner == body.Last() {
				continue // never move the terminator
			}
			if !ir.IsPure(inner) || inner.NumRegions() != 0 {
				continue
			}
			if definedInside(inner, op) {
				continue
			}
			inner.MoveBefore(op)
			changed = true
		}
	}
	return changed
}

// definedInside reports whether any operand of op is defined within loop.
func definedInside(op *ir.Op, loop *ir.Op) bool {
	for i := 0; i < op.NumOperands(); i++ {
		o := op.Operand(i)
		var defOp *ir.Op
		if o.IsBlockArg() {
			parent := o.OwnerBlock().ParentOp()
			if parent != nil && (parent == loop || loop.IsAncestorOf(parent)) {
				return true
			}
			continue
		}
		defOp = o.DefiningOp()
		if defOp != nil && (defOp == loop || loop.IsAncestorOf(defOp)) {
			return true
		}
	}
	return false
}
