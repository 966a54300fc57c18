package ir

// Builder creates operations at a movable insertion point, mirroring MLIR's
// OpBuilder. The zero Builder is unusable; obtain one with AtEnd/Before/After.
type Builder struct {
	block  *Block
	before *Op // insert before this op; nil = append at end of block
}

// AtEnd returns a builder appending at the end of block.
func AtEnd(block *Block) *Builder { return &Builder{block: block} }

// Before returns a builder inserting immediately before op.
func Before(op *Op) *Builder {
	return &Builder{block: op.Block(), before: op}
}

// After returns a builder inserting immediately after op. Ops created later
// keep appearing after previously created ones.
func After(op *Op) *Builder {
	return &Builder{block: op.Block(), before: op.Next()}
}

// Block returns the block the builder currently inserts into.
func (b *Builder) Block() *Block { return b.block }

// Insert places a detached op at the insertion point and returns it.
func (b *Builder) Insert(op *Op) *Op {
	if b.before != nil {
		b.block.insertBefore(op, b.before)
	} else {
		b.block.Append(op)
	}
	return op
}

// Create builds and inserts a generic op.
func (b *Builder) Create(name string, operands []*Value, resultTypes []Type) *Op {
	return b.Insert(NewOp(name, operands, resultTypes))
}
