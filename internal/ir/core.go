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
	uses  []Use  // operand slots that read this value
	name  string // optional printing hint ("%name")
	// use0 backs uses until the second use: most values are read once, and
	// their one use costs no allocation.
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

// Uses returns a snapshot of the operand slots reading this value.
func (v *Value) Uses() []Use {
	out := make([]Use, len(v.uses))
	copy(out, v.uses)
	return out
}

// NumUses returns the number of operand slots reading this value.
func (v *Value) NumUses() int { return len(v.uses) }

// HasOneUse reports whether the value is read by exactly one operand slot.
func (v *Value) HasOneUse() bool { return len(v.uses) == 1 }

// SetName sets the printing hint used by the textual printer.
func (v *Value) SetName(name string) { v.name = name }

// Name returns the printing hint (may be empty).
func (v *Value) Name() string { return v.name }

// ReplaceAllUsesWith rewrites every use of v to read new instead. The uses
// move to new in the order v recorded them.
func (v *Value) ReplaceAllUsesWith(new *Value) {
	if v == new {
		return
	}
	uses := v.uses
	v.uses = nil
	for _, u := range uses {
		u.Op.operands[u.Index] = new
	}
	if new != nil {
		if new.uses == nil {
			new.uses = new.use0[:0]
		}
		new.uses = append(new.uses, uses...)
	}
}

func (v *Value) addUse(op *Op, index int) {
	if v.uses == nil {
		v.uses = v.use0[:0]
	}
	v.uses = append(v.uses, Use{op, index})
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
// An op is one allocation: its first operands, its first result (value and
// slot) and its first attributes live in the Op itself, and a list moves to
// the heap only when it outgrows that inline room. Ops are handled by
// pointer only — the lists point into the struct, so a copy of an Op would
// share them.
type Op struct {
	name     string
	kind     *OpInfo // registered kind of name, resolved by NewOp; nil when unregistered
	operands []*Value
	results  []*Value
	attrs    []namedAttr // sorted by key
	regions  []*Region

	parent     *Block
	prev, next *Op
	// order is the op's position key in parent: strictly increasing along
	// the list, meaningful only while parent.ordered is set (see
	// Block.renumber).
	order int

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
	op := newOp(name, len(operands), len(resultTypes))
	for i, v := range operands {
		op.operands[i] = v
		if v != nil {
			v.addUse(op, i)
		}
	}
	for i, t := range resultTypes {
		op.results[i].typ = t
	}
	return op
}

// newOp allocates an op with nOperands nil operand slots and nResults
// untyped results, the lists in the op's inline room where they fit.
func newOp(name string, nOperands, nResults int) *Op {
	op := &Op{name: name, kind: kinds()[name]}
	op.attrs = op.attr0[:0]
	if nOperands <= inlineOperands {
		op.operands = op.operand0[:nOperands]
	} else {
		op.operands = make([]*Value, nOperands)
	}
	op.results = op.result0[:0]
	switch {
	case nResults == 1:
		op.value0 = Value{def: op}
		op.results = append(op.results, &op.value0)
	case nResults > 1:
		// One block for all results: they live and die with the op.
		vals := make([]Value, nResults)
		op.results = make([]*Value, nResults)
		for i := range vals {
			vals[i] = Value{def: op, index: i}
			op.results[i] = &vals[i]
		}
	}
	return op
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
	if old := op.operands[i]; old != nil {
		old.removeUse(op, i)
	}
	op.operands[i] = v
	if v != nil {
		v.addUse(op, i)
	}
}

// AddOperand appends an operand, maintaining use lists.
func (op *Op) AddOperand(v *Value) {
	op.operands = append(op.operands, v)
	if v != nil {
		v.addUse(op, len(op.operands)-1)
	}
}

// EraseOperand removes operand i and shifts later operands down.
func (op *Op) EraseOperand(i int) {
	if old := op.operands[i]; old != nil {
		old.removeUse(op, i)
	}
	// Later uses shift down by one slot; re-register them.
	for j := i + 1; j < len(op.operands); j++ {
		if v := op.operands[j]; v != nil {
			v.removeUse(op, j)
			v.addUse(op, j-1)
		}
	}
	op.operands = append(op.operands[:i], op.operands[i+1:]...)
}

// SetOperands replaces the whole operand list.
func (op *Op) SetOperands(vs []*Value) {
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
	return a.Value, isInt
}

// StringAttrValue returns the string value stored under key.
func (op *Op) StringAttrValue(key string) (v string, ok bool) {
	a, isStr := op.Attr(key).(StringAttr)
	return a.Value, isStr
}

// NumRegions returns the number of nested regions.
func (op *Op) NumRegions() int { return len(op.regions) }

// Region returns nested region i.
func (op *Op) Region(i int) *Region { return op.regions[i] }

// AddRegion appends a new empty single-block region and returns it.
func (op *Op) AddRegion() *Region {
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
	return op.order < other.order
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

// Clone deep-copies the op, remapping operands through mapping when present.
// Result values of cloned ops are entered into mapping so nested uses are
// rewired. The clone is detached.
func (op *Op) Clone(mapping map[*Value]*Value) *Op {
	if mapping == nil {
		mapping = map[*Value]*Value{}
	}
	cl := newOp(op.name, len(op.operands), len(op.results))
	for i, v := range op.operands {
		if m, ok := mapping[v]; ok {
			v = m
		}
		cl.operands[i] = v
		if v != nil {
			v.addUse(cl, i)
		}
	}
	cl.attrs = append(cl.attrs, op.attrs...)
	for i, r := range op.results {
		cl.results[i].typ = r.typ
		cl.results[i].name = r.name
		mapping[r] = cl.results[i]
	}
	for _, region := range op.regions {
		nr := cl.AddRegion()
		src := region.Block()
		for _, arg := range src.args {
			na := nr.Block().AddArg(arg.typ)
			na.name = arg.name
			mapping[arg] = na
		}
		for o := src.First(); o != nil; o = o.Next() {
			nr.Block().Append(o.Clone(mapping))
		}
	}
	return cl
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
		op.order = n
		n++
	}
	b.ordered = true
}

// Region returns the region containing this block.
func (b *Block) Region() *Region { return b.region }

// ParentOp returns the op owning the region containing this block, or nil.
func (b *Block) ParentOp() *Op {
	if b.region == nil {
		return nil
	}
	return b.region.parent
}

// AddArg appends a new block argument of the given type.
func (b *Block) AddArg(t Type) *Value {
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
	var out []*Op
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
	op.parent = b
	op.prev = b.last
	if b.last != nil {
		b.last.next = op
		op.order = b.last.order + 1
	} else {
		b.first = op
		op.order = 0
		b.ordered = true
	}
	b.last = op
}

func (b *Block) insertBefore(op, ref *Op) {
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

// Funcs returns the fnc.func ops in the module, in order.
func (m *Module) Funcs() []*Op {
	var out []*Op
	for op := m.Block().first; op != nil; op = op.next {
		if op.name == "fnc.func" {
			out = append(out, op)
		}
	}
	return out
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

// Clone deep-copies the module.
func (m *Module) Clone() *Module {
	return &Module{op: m.op.Clone(nil)}
}
