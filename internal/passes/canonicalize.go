// Package passes implements the compiler passes of the paper's pipeline
// (Figure 8): generic cleanups (canonicalize, CSE, LICM) that regular MLIR
// provides, plus the accfg-specific passes that form the paper's
// contribution — state tracing (§5.3), configuration deduplication (§5.4),
// setup hoisting through control flow (§5.4.1) and configuration overlap
// (§5.5).
package passes

import (
	"sync"
	"unsafe"

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

// csePass holds no state: one value serves every pipeline, and each run
// takes its table from the free list.
var csePass ir.Pass = ir.PassFunc{
	PassName: "cse",
	Fn: func(m *ir.Module) error {
		t := takeExprTable(ir.CountOps(m))
		for f := range m.Funcs {
			t.block(f.Region(0).Block())
			t.leave(0)
		}
		t.release()
		return nil
	},
}

// exprTable is the table of available expressions of one CSE run, scoped
// like MLIR's ScopedHashTable: a nested region sees what its enclosing
// scopes entered before it, and leaving a scope takes out what it entered,
// in LIFO order, so nothing leaks back out. It is open-addressed with
// linear probing and never grows during a run: sized for every op of the
// module, it stays at most half full. A slot is cleared only while every
// entry made after it is cleared too, so no probe chain ever crosses a
// hole and no slot needs a tombstone. A pure op is keyed by a hash of its
// name, operand pointers, attribute values and result types and matched by
// structural equality, so a lookup builds no key.
type exprTable struct {
	slots []exprSlot // len is a power of two
	shift uint       // 64 - log2(len(slots)): a hash's top bits pick the home slot
	trail []int      // the slot of every entry, in the order they were made
}

// exprSlot is one entry: an op in scope and its hash. A nil op is empty.
type exprSlot struct {
	hash uint64
	op   *ir.Op
}

// exprTables is the free list of CSE tables: a run takes one and puts it
// back empty. Unlike a sync.Pool, a collection does not empty it, so a
// run reuses the storage of an earlier one; it never holds more tables
// than CSE runs ever ran at once.
var exprTables struct {
	sync.Mutex
	free []*exprTable
}

// takeExprTable pops a free table, or makes one, with room for ops entries
// at half load.
func takeExprTable(ops int) *exprTable {
	exprTables.Lock()
	var t *exprTable
	if n := len(exprTables.free); n > 0 {
		t = exprTables.free[n-1]
		exprTables.free = exprTables.free[:n-1]
	}
	exprTables.Unlock()
	if t == nil {
		t = &exprTable{}
	}
	size, bits := 8, uint(3)
	for size < 2*ops {
		size, bits = 2*size, bits+1
	}
	// Every slot of a released table is empty, so a prefix of a larger
	// one serves as well as a fresh array.
	if cap(t.slots) < size {
		t.slots = make([]exprSlot, size)
	}
	t.slots, t.shift = t.slots[:size], 64-bits
	return t
}

// release puts t back on the free list. Every scope has been left, so every
// slot is empty again.
func (t *exprTable) release() {
	exprTables.Lock()
	exprTables.free = append(exprTables.free, t)
	exprTables.Unlock()
}

// block deduplicates pure ops in a block against the table, descending
// into regions with a scope each. It erases only the op it is looking at,
// so reading the successor first is enough.
func (t *exprTable) block(b *ir.Block) {
	var next *ir.Op
	for op := b.First(); op != nil; op = next {
		next = op.Next()
		if ir.IsPure(op) && op.NumRegions() == 0 && op.NumResults() > 0 {
			if prev := t.lookupOrEnter(op); prev != nil {
				for i := 0; i < op.NumResults(); i++ {
					op.Result(i).ReplaceAllUsesWith(prev.Result(i))
				}
				op.Erase()
				continue
			}
		}
		for ri := 0; ri < op.NumRegions(); ri++ {
			mark := len(t.trail)
			t.block(op.Region(ri).Block())
			t.leave(mark)
		}
	}
}

// lookupOrEnter returns the op in scope that op is equivalent to, or
// enters op and returns nil.
//
//cwlint:hotpath
func (t *exprTable) lookupOrEnter(op *ir.Op) *ir.Op {
	h := opHash(op)
	mask := len(t.slots) - 1
	for i := int(h >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.op == nil {
			s.hash, s.op = h, op
			t.trail = append(t.trail, i)
			return nil
		}
		if s.hash == h && equivalent(s.op, op) {
			return s.op
		}
	}
}

// leave closes a scope: every entry made since the trail was mark long goes.
func (t *exprTable) leave(mark int) {
	for j := len(t.trail) - 1; j >= mark; j-- {
		t.slots[t.trail[j]].op = nil
	}
	t.trail = t.trail[:mark]
}

// mix folds x into the running hash h.
func mix(h, x uint64) uint64 { return (h ^ x) * 0x9e3779b97f4a7c15 }

// stringHash is FNV-1a over s.
func stringHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// opHash hashes what equivalent compares: the op's name, its operands by
// identity, its attribute values and its result types. It reads integer
// and string attributes and the width of a result type only; equivalent
// tells apart the ops that differ in anything else.
//
//cwlint:hotpath
func opHash(op *ir.Op) uint64 {
	h := stringHash(op.Name())
	for i := 0; i < op.NumOperands(); i++ {
		h = mix(h, uint64(uintptr(unsafe.Pointer(op.Operand(i)))))
	}
	for i := 0; i < op.NumAttrs(); i++ {
		_, a := op.AttrAt(i)
		switch a := a.(type) {
		case ir.IntegerAttr:
			h = mix(h, uint64(a.Value()))
		case ir.StringAttr:
			h = mix(h, stringHash(a.Value()))
		}
	}
	for i := 0; i < op.NumResults(); i++ {
		h = mix(h, uint64(ir.IntegerWidth(op.Result(i).Type())))
	}
	return h ^ h>>32
}

// equivalent reports whether two region-free ops compute the same thing:
// the same name, operands, attributes and result types.
//
//cwlint:hotpath
func equivalent(a, b *ir.Op) bool {
	if a.Name() != b.Name() || a.NumOperands() != b.NumOperands() ||
		a.NumAttrs() != b.NumAttrs() || a.NumResults() != b.NumResults() {
		return false
	}
	for i := 0; i < a.NumOperands(); i++ {
		if a.Operand(i) != b.Operand(i) {
			return false
		}
	}
	for i := 0; i < a.NumAttrs(); i++ {
		ka, va := a.AttrAt(i)
		kb, vb := b.AttrAt(i)
		if ka != kb || !attrsEqual(va, vb) {
			return false
		}
	}
	for i := 0; i < a.NumResults(); i++ {
		if !ir.TypesEqual(a.Result(i).Type(), b.Result(i).Type()) {
			return false
		}
	}
	return true
}

// attrsEqual reports whether two attributes hold the same value. An
// array or a type attribute, which == may panic on, compares its parts;
// every other kind is comparable, the interned ones by value.
func attrsEqual(a, b ir.Attribute) bool {
	switch x := a.(type) {
	case ir.IntegerAttr:
		// Equal values share one interned entry, but for an integer of
		// function type, whose entries are its own.
		y, ok := b.(ir.IntegerAttr)
		return ok && (x == y || x.Value() == y.Value() && ir.TypesEqual(x.Type(), y.Type()))
	case ir.ArrayAttr:
		y, ok := b.(ir.ArrayAttr)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false
		}
		for i := range x.Elems {
			if !attrsEqual(x.Elems[i], y.Elems[i]) {
				return false
			}
		}
		return true
	case ir.TypeAttr:
		y, ok := b.(ir.TypeAttr)
		return ok && ir.TypesEqual(x.Type, y.Type)
	}
	return a == b
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
