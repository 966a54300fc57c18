package ir

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// epochFixture is a module whose ops sit three regions deep:
// module > func > loop > {c, add, dead, ret}, with the loop body taking an
// argument a that add reads and an argument b nothing reads.
type epochFixture struct {
	m                  *Module
	fn, loop           *Op
	body               *Block
	a, b               *Value
	c, add, dead, ret  *Op
	other              *Op // a detached op
	builderAt, atFront *Builder
}

func newEpochFixture() *epochFixture {
	fx := &epochFixture{m: NewModule()}
	fx.fn = NewOp("test.func", nil, nil)
	fx.fn.AddRegion()
	fx.m.Append(fx.fn)
	fx.loop = NewOp("test.loop", nil, nil)
	fx.body = fx.loop.AddRegion().Block()
	fx.fn.Region(0).Block().Append(fx.loop)
	fx.a = fx.body.AddArg(IndexType{})
	fx.b = fx.body.AddArg(IndexType{})
	fx.c = NewOp("test.const", nil, []Type{IndexType{}})
	fx.c.SetAttr("value", IntegerAttrOf(1, IndexType{}))
	fx.add = NewOp("test.add", []*Value{fx.a, fx.c.Result(0)}, []Type{IndexType{}})
	fx.dead = NewOp("test.dead", nil, []Type{IndexType{}})
	fx.ret = NewOp("test.yield", []*Value{fx.add.Result(0)}, nil)
	for _, op := range []*Op{fx.c, fx.add, fx.dead, fx.ret} {
		fx.body.Append(op)
	}
	fx.other = NewOp("test.other", nil, nil)
	fx.builderAt, fx.atFront = Before(fx.ret), Before(fx.c)
	return fx
}

// epochMutators are the exported mutators of the IR, each applied once
// inside an epochFixture's module.
var epochMutators = map[string]func(fx *epochFixture){
	"Op.SetOperand":               func(fx *epochFixture) { fx.add.SetOperand(0, fx.c.Result(0)) },
	"Op.AddOperand":               func(fx *epochFixture) { fx.ret.AddOperand(fx.a) },
	"Op.EraseOperand":             func(fx *epochFixture) { fx.add.EraseOperand(1) },
	"Op.SetOperands":              func(fx *epochFixture) { fx.add.SetOperands(nil) },
	"Op.AddResult":                func(fx *epochFixture) { fx.ret.AddResult(IndexType{}) },
	"Op.EraseResult":              func(fx *epochFixture) { fx.dead.EraseResult(0) },
	"Op.SetAttr":                  func(fx *epochFixture) { fx.dead.SetAttr("k", UnitAttr{}) },
	"Op.RemoveAttr":               func(fx *epochFixture) { fx.c.RemoveAttr("value") },
	"Op.AddRegion":                func(fx *epochFixture) { fx.dead.AddRegion() },
	"Op.Remove":                   func(fx *epochFixture) { fx.dead.Remove() },
	"Op.Erase":                    func(fx *epochFixture) { fx.dead.Erase() },
	"Op.MoveBefore":               func(fx *epochFixture) { fx.dead.MoveBefore(fx.c) },
	"Op.MoveAfter":                func(fx *epochFixture) { fx.c.MoveAfter(fx.dead) },
	"Block.AddArg":                func(fx *epochFixture) { fx.body.AddArg(IndexType{}) },
	"Block.EraseArg":              func(fx *epochFixture) { fx.body.EraseArg(1) },
	"Block.Append":                func(fx *epochFixture) { fx.body.Append(fx.other) },
	"Value.ReplaceAllUsesWith":    func(fx *epochFixture) { fx.a.ReplaceAllUsesWith(fx.c.Result(0)) },
	"Value.SetName":               func(fx *epochFixture) { fx.b.SetName("b") },
	"Builder.Insert":              func(fx *epochFixture) { fx.builderAt.Insert(fx.other) },
	"Builder.Create":              func(fx *epochFixture) { fx.atFront.Create("test.new", nil, nil) },
	"Builder.Clone":               func(fx *epochFixture) { fx.atFront.Clone(fx.c, nil) },
	"Module.Append":               func(fx *epochFixture) { fx.m.Append(fx.other) },
	"Op.MoveBefore (to a region)": func(fx *epochFixture) { fx.other.MoveBefore(fx.ret) },
	"Op.MoveAfter (to a region)":  func(fx *epochFixture) { fx.other.MoveAfter(fx.ret) },
}

// epochReaders are the exported methods that leave the IR as it is.
// IsBefore may renumber a block's order keys, which no reader and no
// printout can tell.
var epochReaders = []string{
	"Op.Name", "Op.Dialect", "Op.NumOperands", "Op.Operand", "Op.Operands",
	"Op.NumResults", "Op.Result", "Op.Results", "Op.Attr", "Op.HasAttr",
	"Op.NumAttrs", "Op.AttrAt", "Op.IntAttrValue", "Op.StringAttrValue",
	"Op.NumRegions", "Op.Region", "Op.Block", "Op.ParentOp", "Op.Next",
	"Op.IsBefore", "Op.IsAncestorOf",
	"Block.Region", "Block.ParentOp", "Block.Args", "Block.NumArgs", "Block.Arg",
	"Block.First", "Block.Last", "Block.Len", "Block.Ops",
	"Value.Type", "Value.DefiningOp", "Value.OwnerBlock", "Value.ResultIndex",
	"Value.IsBlockArg", "Value.NumUses", "Value.Use", "Value.HasOneUse", "Value.Name",
	"Builder.Block",
	"Module.Op", "Module.Block", "Module.Funcs", "Module.FindFunc", "Module.Walk", "Module.Clone",
}

// TestEpochCensus: every exported method of *Op, *Block, *Value, *Builder
// and *Module is either a reader or a mutator, and every mutator, applied
// three regions deep in a module, moves the module's epoch — what
// PassManager.Changed, and the family memo's tails after it, rely on. The
// readers that take no argument are called and must leave it alone.
func TestEpochCensus(t *testing.T) {
	fx := newEpochFixture()
	receivers := map[string]any{"Op": fx.c, "Block": fx.body, "Value": fx.a, "Builder": fx.builderAt, "Module": fx.m}
	for typ, recv := range receivers {
		rt := reflect.TypeOf(recv)
		for i := range rt.NumMethod() {
			name := typ + "." + rt.Method(i).Name
			_, mutator := epochMutators[name]
			if reader := slices.Contains(epochReaders, name); mutator == reader {
				t.Errorf("%s: classify it as exactly one of a reader (%v) or a mutator (%v)", name, reader, mutator)
			}
		}
	}
	for _, names := range [][]string{slices.Collect(maps.Keys(epochMutators)), epochReaders} {
		for _, name := range names {
			typ, method, _ := strings.Cut(strings.Fields(name)[0], ".")
			if _, ok := reflect.TypeOf(receivers[typ]).MethodByName(method); !ok {
				t.Errorf("%s is listed, but there is no such method", name)
			}
		}
	}
	for name, mutate := range epochMutators {
		fx := newEpochFixture()
		before := fx.m.op.seq
		mutate(fx)
		if fx.m.op.seq == before {
			t.Errorf("%s left the module's epoch at %d", name, before)
		}
	}
	for typ, recv := range receivers {
		rv := reflect.ValueOf(recv)
		for i := range rv.NumMethod() {
			name := typ + "." + rv.Type().Method(i).Name
			if !slices.Contains(epochReaders, name) || rv.Method(i).Type().NumIn() != 0 {
				continue
			}
			before := fx.m.op.seq
			rv.Method(i).Call(nil)
			if fx.m.op.seq != before {
				t.Errorf("reader %s moved the module's epoch", name)
			}
		}
	}
}
