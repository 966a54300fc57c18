// Package memref provides a minimal buffer dialect: allocation, dimension
// queries, pointer extraction (for handing addresses to accelerators), and
// scalar load/store.
package memref

import (
	"fmt"

	"configwall/internal/ir"
)

// Op names.
const (
	OpAlloc          = "memref.alloc"
	OpDim            = "memref.dim"
	OpExtractPointer = "memref.extract_pointer"
	OpLoad           = "memref.load"
	OpStore          = "memref.store"
)

func init() {
	ir.Register(ir.OpInfo{
		Name:    OpAlloc,
		Summary: "allocate a buffer",
		Verify: func(op *ir.Op) error {
			if op.NumResults() != 1 {
				return fmt.Errorf("expects one result")
			}
			if _, ok := op.Result(0).Type().(ir.MemRefType); !ok {
				return fmt.Errorf("result must be a memref")
			}
			return nil
		},
	})
	ir.Register(ir.OpInfo{
		Name:    OpDim,
		Traits:  []ir.Trait{ir.TraitPure},
		Summary: "query a buffer dimension",
		Verify: func(op *ir.Op) error {
			if op.NumOperands() != 1 || op.NumResults() != 1 {
				return fmt.Errorf("expects one operand, one result")
			}
			if _, ok := op.Attr("index").(ir.IntegerAttr); !ok {
				return fmt.Errorf("missing 'index' attribute")
			}
			return nil
		},
		Fold: foldDim,
	})
	ir.Register(ir.OpInfo{
		Name:    OpExtractPointer,
		Traits:  []ir.Trait{ir.TraitPure},
		Summary: "extract the base address of a buffer",
		Verify: func(op *ir.Op) error {
			if op.NumOperands() != 1 || op.NumResults() != 1 {
				return fmt.Errorf("expects one operand, one result")
			}
			return nil
		},
	})
	ir.Register(ir.OpInfo{
		Name:    OpLoad,
		Summary: "load a scalar from a buffer",
	})
	ir.Register(ir.OpInfo{
		Name:    OpStore,
		Summary: "store a scalar to a buffer",
	})
}

func foldDim(op *ir.Op) (*ir.Value, bool) {
	mt, ok := op.Operand(0).Type().(ir.MemRefType)
	if !ok || op.Block() == nil {
		return nil, false
	}
	idx, _ := op.IntAttrValue("index")
	dims := mt.Dims()
	if int(idx) >= len(dims) || dims[idx] == ir.DynamicSize {
		return nil, false
	}
	b := ir.Before(op)
	c := b.Create("arith.constant", nil, []ir.Type{op.Result(0).Type()})
	c.SetAttr("value", ir.IntegerAttrOf(int64(dims[idx]), op.Result(0).Type()))
	return c.Result(0), false
}

// NewAlloc builds a buffer allocation of the given memref type.
func NewAlloc(b *ir.Builder, t ir.MemRefType) *ir.Value {
	return b.Create(OpAlloc, nil, []ir.Type{t}).Result(0)
}

// NewDim builds a dimension query returning index.
func NewDim(b *ir.Builder, buf *ir.Value, dim int) *ir.Value {
	op := b.Create(OpDim, []*ir.Value{buf}, []ir.Type{ir.Index})
	op.SetAttr("index", ir.IndexAttr(int64(dim)))
	return op.Result(0)
}

// NewExtractPointer builds a base-address extraction returning i64.
func NewExtractPointer(b *ir.Builder, buf *ir.Value) *ir.Value {
	return b.Create(OpExtractPointer, []*ir.Value{buf}, []ir.Type{ir.I64}).Result(0)
}

// NewLoad builds a scalar load at the given indices.
func NewLoad(b *ir.Builder, buf *ir.Value, indices ...*ir.Value) *ir.Value {
	mt := buf.Type().(ir.MemRefType)
	return b.Create(OpLoad, append([]*ir.Value{buf}, indices...), []ir.Type{mt.Elem}).Result(0)
}

// NewStore builds a scalar store at the given indices.
func NewStore(b *ir.Builder, value, buf *ir.Value, indices ...*ir.Value) *ir.Op {
	return b.Create(OpStore, append([]*ir.Value{value, buf}, indices...), nil)
}
