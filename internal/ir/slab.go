package ir

// slab hands out the ops of one tree: Builder.Create and Builder.Clone
// draw from the slab of the root they insert under, so the ops of a tree
// built or grown in place share a few allocations instead of one each.
// Chunks grow 4, 8, 16, then 32 ops: a tree of a handful of ops wastes a
// handful of slots, and a large one allocates once per 32 ops.
type slab struct {
	owner *Op  // the root whose tree draws from the slab
	free  []Op // the rest of the current chunk
	slots int  // ops in every chunk so far, handed out or not
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

// ownSlab returns the slab root's tree draws from, making it on first use.
// A root that was drawn from another tree's slab (and has left that tree)
// gets a slab of its own, so two trees never share one.
func (root *Op) ownSlab() *slab {
	if s := root.slab; s != nil && s.owner == root {
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
// use lists past one, attribute lists past two — and for regions. A
// Module.Clone counts its source and fills each buffer once; a subtree
// clone and a new op leave them empty, and then every list is a make of
// its own.
type storage struct {
	values  []Value     // result blocks and block arguments
	ptrs    []*Value    // operand, result and argument lists
	uses    []Use       // use lists of values read more than once
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

// cloner deep-copies ops: from slab, carving their lists from st, and
// recording every value it copies in mapping.
type cloner struct {
	kinds   map[string]*OpInfo
	slab    *slab
	st      storage
	mapping map[*Value]*Value
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
			v.addUse(cl, i)
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

// record maps the source value v to its copy nv, and gives nv a use list
// the size of v's when the clone counted room for it.
func (c *cloner) record(v, nv *Value) {
	if k := len(v.uses); k > 1 && k <= len(c.st.uses) {
		nv.uses = carve(&c.st.uses, k)[:0]
	}
	c.mapping[v] = nv
}

// Clone deep-copies the module. It counts the source first and then
// allocates each kind of storage once — the ops, the regions, the block
// arguments and result blocks, the spilled lists, the use lists of values
// read more than once, the value mapping presized to the count — so the
// ops of a module cost no allocation each. The copy's ops form the first
// chunk of its slab.
func (m *Module) Clone() *Module {
	var n sizes
	n.count(m.op)
	s := &slab{free: make([]Op, n.ops), slots: n.ops}
	c := cloner{
		kinds: kinds(),
		slab:  s,
		st: storage{
			values:  make([]Value, n.values),
			ptrs:    make([]*Value, n.ptrs),
			uses:    make([]Use, n.uses),
			attrs:   make([]namedAttr, n.attrs),
			regions: make([]Region, n.regions),
			regPtrs: make([]*Region, n.regions),
		},
		mapping: make(map[*Value]*Value, n.mapped),
	}
	root := c.clone(m.op)
	s.owner = root
	return &Module{op: root}
}
