package ir

import (
	"fmt"
)

// Value is an SSA value: either the result of an Op or a block argument.
// Every Value tracks its uses so passes can rewrite the program safely.
type Value struct {
	typ   Type
	def   *Op    // defining op; nil for block arguments
	owner *Block // owning block for block arguments; nil for op results
	index int    // result index or argument index
	uses  []Use  // operand slots that read this value, in the order recorded
	name  string // optional printing hint ("%name")
	// use0 backs uses until the second use: most values are read once, and
	// their one use costs no allocation. A list that outgrows its capacity
	// moves into a chunk carved from a slab (see reserve).
	use0 [1]Use
}

// Use identifies one operand slot of an operation.
type Use struct {
	Op    *Op
	Index int
}

// Type returns the value's type.
func (v *Value) Type() Type { return v.typ }

// DefiningOp returns the op producing this value, or nil for block arguments.
func (v *Value) DefiningOp() *Op { return v.def }

// OwnerBlock returns the block this value is an argument of, or nil.
func (v *Value) OwnerBlock() *Block { return v.owner }

// ResultIndex returns the result or argument index of the value.
func (v *Value) ResultIndex() int { return v.index }

// IsBlockArg reports whether the value is a block argument.
func (v *Value) IsBlockArg() bool { return v.owner != nil }

// NumUses returns the number of operand slots reading this value.
func (v *Value) NumUses() int { return len(v.uses) }

// Use returns the i-th operand slot reading this value, in the order the
// uses were recorded.
func (v *Value) Use(i int) Use { return v.uses[i] }

// HasOneUse reports whether the value is read by exactly one operand slot.
func (v *Value) HasOneUse() bool { return len(v.uses) == 1 }

// SetName sets the printing hint used by the textual printer.
func (v *Value) SetName(name string) {
	if v.name != name {
		v.touch()
		v.name = name
	}
}

// Name returns the printing hint (may be empty).
func (v *Value) Name() string { return v.name }

// ReplaceAllUsesWith rewrites every use of v to read new instead. The uses
// move to new in the order v recorded them, after new's own; new's list
// grows into the slab of the first user's root when that root owns it.
func (v *Value) ReplaceAllUsesWith(new *Value) {
	if v == new || len(v.uses) == 0 {
		return
	}
	uses := v.uses
	v.uses = nil
	var root *Op
	for _, u := range uses {
		if r := u.Op.touch(); root == nil {
			root = r
		}
		u.Op.operands[u.Index] = new
	}
	switch {
	case new == nil:
	case len(new.uses) == 0 && cap(uses) > 1:
		// v's list is not its inline room: new takes it over as it is.
		new.uses = uses
	default:
		new.reserve(len(uses), root.ownedSlab())
		new.uses = append(new.uses, uses...)
	}
}

// touch bumps the epoch of the tree v is defined in.
func (v *Value) touch() {
	if v.def != nil {
		v.def.touch()
	} else if v.owner != nil {
		v.owner.touch()
	}
}

// addUse records operand slot index of op as a use of v, growing v's list
// into s when it is full (see reserve).
func (v *Value) addUse(op *Op, index int, s *slab) {
	v.reserve(1, s)
	v.uses = append(v.uses, Use{op, index})
}

// reserve makes room in v's use list for k more uses. An empty list takes
// the inline room when one use fits it. A fuller list moves into a list of
// twice its capacity, or the size it needs if that is more, taken from s —
// the slab of the tree its new user hangs in, and never one another tree
// owns, so a tree's goroutine is the only one that carves from it — and
// the list it left becomes s's spare. With no slab the list is left to
// grow by append.
func (v *Value) reserve(k int, s *slab) {
	n := len(v.uses) + k
	switch {
	case n <= cap(v.uses):
	case n == 1:
		v.uses = v.use0[:0]
	case s != nil:
		old := v.uses
		v.uses = append(s.takeUses(max(n, 2*cap(old))), old...)
		s.giveBack(old)
	}
}

func (v *Value) removeUse(op *Op, index int) {
	for i, u := range v.uses {
		if u.Op == op && u.Index == index {
			v.uses = append(v.uses[:i], v.uses[i+1:]...)
			return
		}
	}
}

// Op is a generic operation, identified by its dialect-qualified name
// (e.g. "accfg.setup"). Operands, results, attributes, and nested regions
// follow MLIR's generic operation structure.
//
// An op's first operands, its first result (value and slot) and its first
// attributes live in the Op itself, and a list moves to the heap only when
// it outgrows that inline room. Ops are handled by pointer only — the lists
// point into the struct, so a copy of an Op would share them.
//
// The Op itself comes from one of three places. A bare NewOp is one
// allocation of its own. An op a Builder creates comes from the slab of the
// root of the tree it is inserted into — the module's op, or a detached
// root — which hands out chunks of 4, 8, 16, then 32 ops, and a
// Builder.Clone draws the same way. A Module.Clone takes all of the copy's
// ops from one array. Slab storage is freed with the whole chunk: an op
// erased or moved out of its tree keeps its slot until every op of the
// chunk is unreachable, in practice until the tree dies.
type Op struct {
	name     string
	kind     *OpInfo // registered kind of name, resolved by NewOp; nil when unregistered
	operands []*Value
	results  []*Value
	attrs    []namedAttr // sorted by key
	regions  []*Region

	parent     *Block
	prev, next *Op
	// seq is, on an op in a block, its position key there: strictly
	// increasing along the list, meaningful only while parent.ordered is set
	// (see Block.renumber). On a root (a module's op, or a detached op) it
	// is the epoch instead: the count of the mutations of the tree the op
	// roots (see touch). A root has no position and an op in a block no
	// epoch, so one word holds both.
	seq int
	// slab is the slab the op was drawn from, or, on a root whose tree has
	// one, the slab the tree draws from (slab.owner is the root then).
	slab *slab

	operand0 [inlineOperands]*Value
	result0  [1]*Value
	value0   Value // result 0 when it is inline (result0[0] == &value0)
	attr0    [inlineAttrs]namedAttr
}

// Inline room in an Op: enough for every arith op (at most three operands,
// one result, one attribute); a setup's field operands and a loop's carried
// values spill to the heap.
const (
	inlineOperands = 3
	inlineAttrs    = 2
)

// namedAttr is one entry of an op's attribute dictionary.
type namedAttr struct {
	key string
	val Attribute
}

// NewOp creates a detached operation. resultTypes determines the number and
// types of results. The op must be inserted into a block (Block.Append /
// InsertBefore) before the program is printed or verified. The op's kind is
// looked up here, once: see Register for the ordering rule that follows.
func NewOp(name string, operands []*Value, resultTypes []Type) *Op {
	return build(new(Op), name, operands, resultTypes)
}

// build makes the zeroed op an op of the given name, operands and result
// types.
func build(op *Op, name string, operands []*Value, resultTypes []Type) *Op {
	var st storage
	op.init(name, kinds()[name], len(operands), len(resultTypes), &st)
	for i, v := range operands {
		op.operands[i] = v
		if v != nil {
			v.addUse(op, i, op.slab)
		}
	}
	for i, t := range resultTypes {
		op.results[i].typ = t
	}
	return op
}

// init makes the zeroed op an op of the given name and kind with nOperands
// nil operand slots and nResults untyped results, the lists in the op's
// inline room where they fit and carved from st where they do not.
func (op *Op) init(name string, kind *OpInfo, nOperands, nResults int, st *storage) {
	op.name, op.kind = name, kind
	op.attrs = op.attr0[:0]
	if nOperands <= inlineOperands {
		op.operands = op.operand0[:nOperands]
	} else {
		op.operands = carve(&st.ptrs, nOperands)
	}
	op.results = op.result0[:0]
	switch {
	case nResults == 1:
		op.value0 = Value{def: op}
		op.results = append(op.results, &op.value0)
	case nResults > 1:
		// One block for all results: they live and die with the op.
		vals := carve(&st.values, nResults)
		op.results = carve(&st.ptrs, nResults)
		for i := range vals {
			vals[i] = Value{def: op, index: i}
			op.results[i] = &vals[i]
		}
	}
}

// Name returns the dialect-qualified op name.
func (op *Op) Name() string { return op.name }

// Dialect returns the dialect prefix of the op name ("accfg" for
// "accfg.setup"), or "" when the name is unqualified.
func (op *Op) Dialect() string {
	for i := 0; i < len(op.name); i++ {
		if op.name[i] == '.' {
			return op.name[:i]
		}
	}
	return ""
}

// NumOperands returns the operand count.
func (op *Op) NumOperands() int { return len(op.operands) }

// Operand returns operand i.
func (op *Op) Operand(i int) *Value { return op.operands[i] }

// Operands returns a snapshot of the operand list.
func (op *Op) Operands() []*Value {
	out := make([]*Value, len(op.operands))
	copy(out, op.operands)
	return out
}

// SetOperand replaces operand i, maintaining use lists.
func (op *Op) SetOperand(i int, v *Value) {
	root := op.touch()
	if old := op.operands[i]; old != nil {
		old.removeUse(op, i)
	}
	op.operands[i] = v
	if v != nil {
		v.addUse(op, i, root.ownedSlab())
	}
}

// AddOperand appends an operand, maintaining use lists.
func (op *Op) AddOperand(v *Value) {
	root := op.touch()
	op.operands = append(op.operands, v)
	if v != nil {
		v.addUse(op, len(op.operands)-1, root.ownedSlab())
	}
}

// EraseOperand removes operand i and shifts later operands down.
func (op *Op) EraseOperand(i int) {
	op.touch()
	if old := op.operands[i]; old != nil {
		old.removeUse(op, i)
	}
	// Later uses shift down by one slot; re-register them.
	for j := i + 1; j < len(op.operands); j++ {
		if v := op.operands[j]; v != nil {
			v.removeUse(op, j)
			v.addUse(op, j-1, nil) // the removal made room
		}
	}
	op.operands = append(op.operands[:i], op.operands[i+1:]...)
}

// SetOperands replaces the whole operand list.
func (op *Op) SetOperands(vs []*Value) {
	op.touch()
	for i, old := range op.operands {
		if old != nil {
			old.removeUse(op, i)
		}
	}
	op.operands = op.operands[:0]
	for _, v := range vs {
		op.AddOperand(v)
	}
}

// NumResults returns the result count.
func (op *Op) NumResults() int { return len(op.results) }

// Result returns result i.
func (op *Op) Result(i int) *Value { return op.results[i] }

// Results returns a snapshot of the result list.
func (op *Op) Results() []*Value {
	out := make([]*Value, len(op.results))
	copy(out, op.results)
	return out
}

// AddResult appends a new result value of the given type. Used by passes
// that extend ops in place (e.g. adding loop-carried state to scf.for).
func (op *Op) AddResult(t Type) *Value {
	op.touch()
	v := &op.value0
	if len(op.results) > 0 || v.def != nil {
		// The inline value is taken, or was and still has readers' pointers.
		v = &Value{}
	}
	*v = Value{typ: t, def: op, index: len(op.results)}
	op.results = append(op.results, v)
	return v
}

// EraseResult removes result i, which must have no uses, and reindexes the
// remaining results. Used by dialect-lowering passes that strip types
// (e.g. removing !accfg.state loop-carried values).
func (op *Op) EraseResult(i int) {
	if len(op.results[i].uses) > 0 {
		panic(fmt.Sprintf("ir: erasing result %d of %s with live uses", i, op.name))
	}
	op.touch()
	op.results = append(op.results[:i], op.results[i+1:]...)
	for j := i; j < len(op.results); j++ {
		op.results[j].index = j
	}
}

// Attr returns the attribute stored under key, or nil.
func (op *Op) Attr(key string) Attribute {
	if i, ok := op.attrIndex(key); ok {
		return op.attrs[i].val
	}
	return nil
}

// attrIndex returns where key is, or would be inserted, in the sorted
// dictionary. An op carries a handful of attributes, so a scan beats a
// binary search.
func (op *Op) attrIndex(key string) (int, bool) {
	for i := range op.attrs {
		if k := op.attrs[i].key; k >= key {
			return i, k == key
		}
	}
	return len(op.attrs), false
}

// SetAttr stores an attribute under key.
func (op *Op) SetAttr(key string, a Attribute) {
	op.touch()
	i, ok := op.attrIndex(key)
	if ok {
		op.attrs[i].val = a
		return
	}
	op.attrs = append(op.attrs, namedAttr{})
	copy(op.attrs[i+1:], op.attrs[i:])
	op.attrs[i] = namedAttr{key, a}
}

// RemoveAttr deletes the attribute stored under key.
func (op *Op) RemoveAttr(key string) {
	if i, ok := op.attrIndex(key); ok {
		op.touch()
		op.attrs = append(op.attrs[:i], op.attrs[i+1:]...)
	}
}

// HasAttr reports whether key is present.
func (op *Op) HasAttr(key string) bool {
	_, ok := op.attrIndex(key)
	return ok
}

// NumAttrs returns the number of attributes.
func (op *Op) NumAttrs() int { return len(op.attrs) }

// AttrAt returns attribute i of the dictionary in key order, so that
// 0..NumAttrs()-1 visits the dictionary in place, sorted.
func (op *Op) AttrAt(i int) (key string, a Attribute) {
	return op.attrs[i].key, op.attrs[i].val
}

// IntAttrValue returns the integer value of an IntegerAttr stored under key.
// ok is false when the attribute is absent or not an integer.
func (op *Op) IntAttrValue(key string) (v int64, ok bool) {
	a, isInt := op.Attr(key).(IntegerAttr)
	return a.Value(), isInt
}

// StringAttrValue returns the string value stored under key.
func (op *Op) StringAttrValue(key string) (v string, ok bool) {
	a, isStr := op.Attr(key).(StringAttr)
	return a.Value(), isStr
}

// NumRegions returns the number of nested regions.
func (op *Op) NumRegions() int { return len(op.regions) }

// Region returns nested region i.
func (op *Op) Region(i int) *Region { return op.regions[i] }

// AddRegion appends a new empty single-block region and returns it.
func (op *Op) AddRegion() *Region {
	op.touch()
	r := &Region{parent: op}
	r.block.region = r
	op.regions = append(op.regions, r)
	return r
}

// Block returns the block containing this op, or nil when detached.
func (op *Op) Block() *Block { return op.parent }

// ParentOp returns the op owning the region that contains this op, or nil.
func (op *Op) ParentOp() *Op {
	if op.parent == nil || op.parent.region == nil {
		return nil
	}
	return op.parent.region.parent
}

// Next returns the next op in the containing block, or nil.
func (op *Op) Next() *Op { return op.next }

// Remove unlinks the op from its block without dropping operand uses, so it
// can be re-inserted elsewhere (MoveBefore/MoveAfter use this).
func (op *Op) Remove() {
	if op.parent == nil {
		return
	}
	op.touch()
	b := op.parent
	if op.prev != nil {
		op.prev.next = op.next
	} else {
		b.first = op.next
	}
	if op.next != nil {
		op.next.prev = op.prev
	} else {
		b.last = op.prev
	}
	op.prev, op.next, op.parent = nil, nil, nil
}

// Erase unlinks the op and drops its operand uses. The op must have no
// remaining uses of its results; Erase panics otherwise to surface pass bugs
// early.
func (op *Op) Erase() {
	for _, r := range op.results {
		if len(r.uses) > 0 {
			panic(fmt.Sprintf("ir: erasing %s with live uses of result %d", op.name, r.index))
		}
	}
	op.Remove()
	for i, v := range op.operands {
		if v != nil {
			v.removeUse(op, i)
			op.operands[i] = nil
		}
	}
	// Recursively drop nested ops so their operand uses disappear too.
	for _, region := range op.regions {
		blk := region.Block()
		for o := blk.First(); o != nil; {
			next := o.Next()
			o.dropAllUses()
			o.Remove()
			o = next
		}
	}
}

// dropAllUses removes the op's operand uses and recursively those of nested
// ops, without checking result liveness. Used when deleting whole subtrees.
func (op *Op) dropAllUses() {
	for i, v := range op.operands {
		if v != nil {
			v.removeUse(op, i)
			op.operands[i] = nil
		}
	}
	for _, region := range op.regions {
		for o := region.Block().First(); o != nil; o = o.Next() {
			o.dropAllUses()
		}
	}
}

// MoveBefore unlinks the op and re-inserts it immediately before other.
func (op *Op) MoveBefore(other *Op) {
	op.Remove()
	other.parent.insertBefore(op, other)
}

// MoveAfter unlinks the op and re-inserts it immediately after other.
func (op *Op) MoveAfter(other *Op) {
	op.Remove()
	other.parent.insertAfter(op, other)
}

// touch records a mutation of the tree op hangs in: it bumps the epoch of
// op's root, and returns that root. Every mutator calls it before it
// unlinks anything, so the count lands on the tree the mutation left;
// PassManager.Run compares a module's epoch across a pass to learn whether
// the pass changed it.
func (op *Op) touch() *Op {
	root := op.root()
	root.seq++
	return root
}

// root returns the root of the tree op hangs in: op itself when detached.
func (op *Op) root() *Op {
	for p := op.ParentOp(); p != nil; p = op.ParentOp() {
		op = p
	}
	return op
}

// IsBefore reports whether op appears strictly before other within the same
// block. Both ops must share a block; the answer is false otherwise. It is
// a compare of the two ops' order keys, so the first query after the block
// was reordered renumbers the block: a read here can write, and a module
// belongs to one goroutine at a time.
//
//cwlint:hotpath
func (op *Op) IsBefore(other *Op) bool {
	b := op.parent
	if b == nil || other.parent != b {
		return false
	}
	if !b.ordered {
		b.renumber()
	}
	return op.seq < other.seq
}

// IsAncestorOf reports whether other is nested (at any depth) inside op.
func (op *Op) IsAncestorOf(other *Op) bool {
	for p := other; p != nil; p = p.ParentOp() {
		if p == op {
			return true
		}
	}
	return false
}

// Region is a single-block region nested under an op.
type Region struct {
	parent *Op
	block  Block
}

// Block returns the region's single block.
func (r *Region) Block() *Block { return &r.block }

// ParentOp returns the op owning this region.
func (r *Region) ParentOp() *Op { return r.parent }

// Block is an ordered list of operations plus block arguments.
type Block struct {
	region      *Region
	args        []*Value
	first, last *Op
	// ordered records that the ops' order keys increase strictly along the
	// list. Appending keeps it and unlinking cannot break it; inserting
	// anywhere but at the end clears it, and the next Op.IsBefore renumbers.
	ordered bool
}

// renumber assigns order keys 0, 1, 2, ... along the list.
func (b *Block) renumber() {
	n := 0
	for op := b.first; op != nil; op = op.next {
		op.seq = n
		n++
	}
	b.ordered = true
}

// Region returns the region containing this block.
func (b *Block) Region() *Region { return b.region }

// touch bumps the epoch of the tree b belongs to.
func (b *Block) touch() {
	if p := b.ParentOp(); p != nil {
		p.touch()
	}
}

// ParentOp returns the op owning the region containing this block, or nil.
func (b *Block) ParentOp() *Op {
	if b.region == nil {
		return nil
	}
	return b.region.parent
}

// AddArg appends a new block argument of the given type.
func (b *Block) AddArg(t Type) *Value {
	b.touch()
	v := &Value{typ: t, owner: b, index: len(b.args)}
	b.args = append(b.args, v)
	return v
}

// Args returns a snapshot of the block arguments.
func (b *Block) Args() []*Value {
	out := make([]*Value, len(b.args))
	copy(out, b.args)
	return out
}

// NumArgs returns the number of block arguments.
func (b *Block) NumArgs() int { return len(b.args) }

// Arg returns block argument i.
func (b *Block) Arg(i int) *Value { return b.args[i] }

// EraseArg removes block argument i. It must have no uses.
func (b *Block) EraseArg(i int) {
	if len(b.args[i].uses) > 0 {
		panic("ir: erasing block argument with live uses")
	}
	b.touch()
	b.args = append(b.args[:i], b.args[i+1:]...)
	for j := i; j < len(b.args); j++ {
		b.args[j].index = j
	}
}

// First returns the first op, or nil when the block is empty.
func (b *Block) First() *Op { return b.first }

// Last returns the last op (by convention the terminator), or nil.
func (b *Block) Last() *Op { return b.last }

// Len counts the ops in the block.
func (b *Block) Len() int {
	n := 0
	for op := b.first; op != nil; op = op.next {
		n++
	}
	return n
}

// Ops returns a snapshot slice of the ops in order. Useful when mutating the
// block while iterating.
func (b *Block) Ops() []*Op {
	out := make([]*Op, 0, b.Len())
	for op := b.first; op != nil; op = op.next {
		out = append(out, op)
	}
	return out
}

// Append inserts op at the end of the block.
func (b *Block) Append(op *Op) {
	if op.parent != nil {
		panic("ir: appending op already in a block")
	}
	b.touch()
	b.link(op)
}

// link puts the detached op at the end of the block without counting a
// mutation: Append, and a clone filling blocks of its own.
func (b *Block) link(op *Op) {
	op.parent = b
	op.prev = b.last
	if b.last != nil {
		b.last.next = op
		op.seq = b.last.seq + 1
	} else {
		b.first = op
		op.seq = 0
		b.ordered = true
	}
	b.last = op
}

func (b *Block) insertBefore(op, ref *Op) {
	b.touch()
	b.ordered = false
	op.parent = b
	op.next = ref
	op.prev = ref.prev
	if ref.prev != nil {
		ref.prev.next = op
	} else {
		b.first = op
	}
	ref.prev = op
}

func (b *Block) insertAfter(op, ref *Op) {
	b.touch()
	b.ordered = false
	op.parent = b
	op.prev = ref
	op.next = ref.next
	if ref.next != nil {
		ref.next.prev = op
	} else {
		b.last = op
	}
	ref.next = op
}

// Walk visits op and every op nested within its regions in pre-order. It
// follows the blocks' linked lists and copies nothing; the one thing it
// holds on to is each op's successor, read before the callback sees the op.
// The contract that follows from that:
//
//   - The callback may erase, move or rewrite the op it is visiting. The
//     op's regions are walked next, as the callback left them, and the walk
//     resumes at the successor the op had before the callback (an op moved
//     to a place still ahead of the walk is met again there).
//   - The callback may insert ops before or after the visited op. They are
//     not visited: those before are behind the walk, those after sit in
//     front of a successor already read.
//   - The callback must not erase or move an op that is still ahead of the
//     walk in the same block — a later sibling of the visited op or of one
//     of its ancestors. The walk meets the rest of the block as it then is,
//     so an op erased further on is just not visited and one moved is
//     visited where it ends up; but if it is the successor the walk holds
//     that left the block, Walk panics rather than end the block early, and
//     if that successor moved within the block the walk follows it and
//     skips what lay between, undetected. Loops that mutate siblings
//     iterate over Block.Ops, which is a snapshot.
//
//cwlint:hotpath
func Walk(op *Op, fn func(*Op)) {
	// Capture regions before the callback in case it erases op.
	regions := op.regions
	fn(op)
	for _, r := range regions {
		WalkBlock(&r.block, fn)
	}
}

// WalkBlock visits every op in the block (and nested regions) in pre-order,
// under Walk's contract.
//
//cwlint:hotpath
func WalkBlock(b *Block, fn func(*Op)) {
	for op := b.first; op != nil; {
		next := op.next
		Walk(op, fn)
		if next != nil && next.parent != b {
			panic("ir: Walk callback removed the visited op's successor from its block")
		}
		op = next
	}
}

// Module is the top-level container: a builtin.module op with one region
// holding the program's functions.
type Module struct {
	op *Op
}

// NewModule creates an empty module.
func NewModule() *Module {
	op := NewOp("builtin.module", nil, nil)
	op.AddRegion()
	return &Module{op: op}
}

// Op returns the underlying builtin.module operation.
func (m *Module) Op() *Op { return m.op }

// Block returns the module body block.
func (m *Module) Block() *Block { return m.op.Region(0).Block() }

// Append adds a top-level op (typically a fnc.func) to the module.
func (m *Module) Append(op *Op) { m.Block().Append(op) }

// Funcs is the sequence of the module's fnc.func ops, in order, read in
// place: range over m.Funcs. It is a method of iter.Seq's shape rather than
// a method returning one, so no iteration allocates a closure. The loop
// body may change the function it is given, or remove it from the module:
// the next one is read before the body runs.
func (m *Module) Funcs(yield func(*Op) bool) {
	for op := m.Block().first; op != nil; {
		next := op.next
		if op.name == "fnc.func" && !yield(op) {
			return
		}
		op = next
	}
}

// FindFunc returns the fnc.func with the given symbol name, or nil.
func (m *Module) FindFunc(name string) *Op {
	for op := m.Block().first; op != nil; op = op.next {
		if op.name != "fnc.func" {
			continue
		}
		if sym, ok := op.StringAttrValue("sym_name"); ok && sym == name {
			return op
		}
	}
	return nil
}

// Walk visits every op in the module in pre-order.
func (m *Module) Walk(fn func(*Op)) { Walk(m.op, fn) }
