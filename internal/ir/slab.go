package ir

import "math/bits"

// slab hands out the ops of one tree, and the use lists that outgrow their
// value's inline room as the tree's ops read them: Builder.Create and
// Builder.Clone draw from the slab of the root they insert under, so the
// ops and use lists of a tree built or grown in place share a few
// allocations instead of one each. Op chunks grow 4, 8, 16, then 32 ops: a
// tree of a handful of ops wastes a handful of slots, and a large one
// allocates once per 32 ops. Use chunks hold 32 uses.
type slab struct {
	owner    *Op   // the root whose tree draws from the slab
	free     []Op  // the rest of the current op chunk
	slots    int   // ops in every chunk so far, handed out or not
	uses     []Use // the rest of the current use chunk
	useSlots int   // uses in every use chunk so far, handed out or not
	// spare holds, for capacities 2, 4, 8 and 16, the list a value last
	// left when its list grew out of that capacity in this tree; the next
	// list of that capacity takes it rather than a new carve.
	spare [4][]Use
}

// take returns a zeroed op from the slab.
func (s *slab) take() *Op {
	if len(s.free) == 0 {
		n := min(s.slots+4, 32)
		s.free = make([]Op, n)
		s.slots += n
	}
	op := &s.free[0]
	s.free = s.free[1:]
	op.slab = s
	return op
}

// useChunk is how many uses a use chunk holds: 512 bytes, a size class of
// its own, on a 64-bit target.
const useChunk = 32

// takeUses returns an empty use list of capacity n carved from the slab. A
// chunk too short for n is left with its tail unused; a list longer than a
// chunk, when the current one (a Module.Clone's counted first chunk) has
// no room for it, is a chunk of its own.
func (s *slab) takeUses(n int) []Use {
	if k := spareIndex(n); k >= 0 && s.spare[k] != nil {
		list := s.spare[k]
		s.spare[k] = nil
		return list
	}
	if n > len(s.uses) {
		if n > useChunk {
			s.useSlots += n
			return make([]Use, 0, n)
		}
		s.uses = make([]Use, useChunk)
		s.useSlots += useChunk
	}
	return carve(&s.uses, n)[:0]
}

// giveBack keeps list, which its value has just left for a longer one, as
// the spare of its capacity. Nothing reads a list its value has left, and
// only the goroutine that owns the slab's tree gives back or takes.
func (s *slab) giveBack(list []Use) {
	if k := spareIndex(cap(list)); k >= 0 {
		s.spare[k] = list[:0]
	}
}

// spareIndex returns where a list of capacity n is kept spare, or -1.
func spareIndex(n int) int {
	if n < 2 || n > 16 || n&(n-1) != 0 {
		return -1
	}
	return bits.Len(uint(n)) - 2
}

// ownedSlab returns the slab root's tree draws from, or nil when root has
// none of its own.
func (root *Op) ownedSlab() *slab {
	if s := root.slab; s != nil && s.owner == root {
		return s
	}
	return nil
}

// ownSlab returns the slab root's tree draws from, making it on first use.
// A root that was drawn from another tree's slab (and has left that tree)
// gets a slab of its own, so two trees never share one.
func (root *Op) ownSlab() *slab {
	if s := root.ownedSlab(); s != nil {
		return s
	}
	s := &slab{owner: root}
	root.slab = s
	return s
}

// slab returns the slab new ops of b's tree come from: its root's. Every
// block a Builder can reach is owned by an op; only the parser holds a
// block no op owns yet, and it fills that block with ir.NewOp.
func (b *Block) slab() *slab {
	return b.ParentOp().root().ownSlab()
}

// storage holds the lists a clone carves for what spills out of an op's
// inline room — operand lists past three, result blocks, block arguments,
// attribute lists past two — and for regions. A Module.Clone counts its
// source and fills each buffer once; a subtree clone and a new op leave
// them empty, and then every list is a make of its own. (Use lists past
// one come from the slab.)
type storage struct {
	values  []Value     // result blocks and block arguments
	ptrs    []*Value    // operand, result and argument lists
	attrs   []namedAttr // attribute lists past the inline room
	regions []Region
	regPtrs []*Region
}

// carve returns n elements of *buf, capped at n so that growing the list
// later moves it out, or a make of its own when *buf has fewer.
func carve[T any](buf *[]T, n int) []T {
	if n > len(*buf) {
		return make([]T, n)
	}
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// sizes is what a clone of a tree needs of every kind of storage.
type sizes struct {
	ops, values, ptrs, uses, attrs, regions int
	mapped                                  int // results and block arguments: the values a clone maps
}

// count adds op and everything nested in it to n.
//
//cwlint:hotpath
func (n *sizes) count(op *Op) {
	n.ops++
	if k := len(op.operands); k > inlineOperands {
		n.ptrs += k
	}
	if k := len(op.results); k > 1 {
		n.values += k
		n.ptrs += k
	}
	if k := len(op.attrs); k > inlineAttrs {
		n.attrs += k
	}
	n.mapped += len(op.results)
	n.countUses(op.results)
	n.regions += len(op.regions)
	for _, r := range op.regions {
		args := r.block.args
		n.values += len(args)
		n.ptrs += len(args)
		n.mapped += len(args)
		n.countUses(args)
		for o := r.block.first; o != nil; o = o.next {
			n.count(o)
		}
	}
}

// countUses adds the use lists of vs that spill out of their first use.
//
//cwlint:hotpath
func (n *sizes) countUses(vs []*Value) {
	for _, v := range vs {
		if k := len(v.uses); k > 1 {
			n.uses += k
		}
	}
}

// cloner deep-copies ops: from slab, carving their lists from st and their
// use lists from slab, and recording every value it copies in mapping.
// counted is set when the clone counted its source first (Module.Clone):
// then every copied value's use list is carved at the size of its
// source's, which is what the copy ends with.
type cloner struct {
	kinds   map[string]*OpInfo
	slab    *slab
	st      storage
	mapping map[*Value]*Value
	counted bool
}

// clone returns a copy of op and everything nested in it. The copy is
// detached; its nested blocks are filled without counting a mutation, as
// nothing outside the copy can see them yet.
func (c *cloner) clone(op *Op) *Op {
	cl := c.slab.take()
	cl.init(op.name, c.kinds[op.name], len(op.operands), len(op.results), &c.st)
	for i, v := range op.operands {
		if m, ok := c.mapping[v]; ok {
			v = m
		}
		cl.operands[i] = v
		if v != nil {
			v.addUse(cl, i, c.slab)
		}
	}
	if len(op.attrs) > inlineAttrs {
		cl.attrs = carve(&c.st.attrs, len(op.attrs))[:0]
	}
	cl.attrs = append(cl.attrs, op.attrs...)
	for i, r := range op.results {
		nr := cl.results[i]
		nr.typ, nr.name = r.typ, r.name
		c.record(r, nr)
	}
	if len(op.regions) > 0 {
		rs := carve(&c.st.regions, len(op.regions))
		cl.regions = carve(&c.st.regPtrs, len(op.regions))
		for i, src := range op.regions {
			r := &rs[i]
			r.parent = cl
			r.block.region = r
			cl.regions[i] = r
			c.cloneBlock(&src.block, &r.block)
		}
	}
	return cl
}

// cloneBlock fills the empty block dst with copies of src's arguments and
// ops.
func (c *cloner) cloneBlock(src, dst *Block) {
	if n := len(src.args); n > 0 {
		vals := carve(&c.st.values, n)
		dst.args = carve(&c.st.ptrs, n)
		for i, a := range src.args {
			vals[i] = Value{typ: a.typ, owner: dst, index: i, name: a.name}
			dst.args[i] = &vals[i]
			c.record(a, &vals[i])
		}
	}
	for o := src.first; o != nil; o = o.next {
		dst.link(c.clone(o))
	}
}

// record maps the source value v to its copy nv, and when the clone
// counted its source gives nv a use list the size of v's.
func (c *cloner) record(v, nv *Value) {
	if k := len(v.uses); k > 1 && c.counted {
		nv.uses = c.slab.takeUses(k)
	}
	c.mapping[v] = nv
}

// Clone deep-copies the module. It counts the source first and then
// allocates each kind of storage once — the ops, the regions, the block
// arguments and result blocks, the spilled lists, the use lists of values
// read more than once, the value mapping presized to the count — so the
// ops of a module cost no allocation each. The copy's ops form the first
// op chunk of its slab, and its use lists the first use chunk.
func (m *Module) Clone() *Module {
	var n sizes
	n.count(m.op)
	s := &slab{
		free: make([]Op, n.ops), slots: n.ops,
		uses: make([]Use, n.uses), useSlots: n.uses,
	}
	c := cloner{
		kinds: kinds(),
		slab:  s,
		st: storage{
			values:  make([]Value, n.values),
			ptrs:    make([]*Value, n.ptrs),
			attrs:   make([]namedAttr, n.attrs),
			regions: make([]Region, n.regions),
			regPtrs: make([]*Region, n.regions),
		},
		mapping: make(map[*Value]*Value, n.mapped),
		counted: true,
	}
	root := c.clone(m.op)
	s.owner = root
	return &Module{op: root}
}
