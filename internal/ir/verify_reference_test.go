package ir_test

// The map-copying verifier ir.Verify replaced, kept verbatim as an oracle:
// a property test runs both over generated programs after every pass of
// every pipeline, then over seeded corruptions of those modules, and holds
// the order-indexed verifier to the same verdict and the same diagnostic.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"configwall/internal/core"
	"configwall/internal/dialects/fnc"
	"configwall/internal/ir"
	"configwall/internal/irgen"
)

func refVerify(m *ir.Module) error { return refVerifyOp(m.Op(), map[*ir.Value]bool{}) }

func refVerifyOp(op *ir.Op, visible map[*ir.Value]bool) error {
	for i, operand := range op.Operands() {
		if operand == nil {
			return fmt.Errorf("op %s: operand %d is nil", op.Name(), i)
		}
		if !visible[operand] {
			return fmt.Errorf("op %s: operand %d (%s) is not visible at use site (dominance violation)", op.Name(), i, operand.Type())
		}
		// Use-list consistency.
		found := false
		for j := range operand.NumUses() {
			if u := operand.Use(j); u.Op == op && u.Index == i {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("op %s: operand %d missing from use list", op.Name(), i)
		}
	}
	kind, registered := ir.Lookup(op.Name())
	if registered && kind.Verify != nil {
		if err := kind.Verify(op); err != nil {
			return fmt.Errorf("op %s: %w", op.Name(), err)
		}
	}
	for _, r := range op.Results() {
		visible[r] = true
	}
	isolated := registered && kind.HasTrait(ir.TraitIsolated)
	for ri := 0; ri < op.NumRegions(); ri++ {
		blk := op.Region(ri).Block()
		var scope map[*ir.Value]bool
		if isolated {
			scope = map[*ir.Value]bool{}
		} else {
			scope = map[*ir.Value]bool{}
			for v := range visible {
				scope[v] = true
			}
		}
		for _, a := range blk.Args() {
			scope[a] = true
		}
		for _, o := range blk.Ops() {
			if err := refVerifyOp(o, scope); err != nil {
				return err
			}
		}
		if err := refVerifyTerminator(op, blk); err != nil {
			return err
		}
	}
	return nil
}

func refVerifyTerminator(parent *ir.Op, blk *ir.Block) error {
	switch parent.Name() {
	case "builtin.module":
		return nil
	}
	last := blk.Last()
	if last == nil {
		return fmt.Errorf("op %s: empty region body (missing terminator)", parent.Name())
	}
	if !ir.IsTerminator(last) {
		return fmt.Errorf("op %s: region does not end in a terminator (ends in %s)", parent.Name(), last.Name())
	}
	for o := blk.First(); o != last; o = o.Next() {
		if ir.IsTerminator(o) {
			return fmt.Errorf("op %s: terminator %s in the middle of a block", parent.Name(), o.Name())
		}
	}
	return nil
}

// agree holds the two verifiers to one verdict and one diagnostic.
func agree(t *testing.T, what string, m *ir.Module) (rejected bool) {
	t.Helper()
	refErr, newErr := refVerify(m), ir.Verify(m)
	switch {
	case (refErr == nil) != (newErr == nil):
		t.Fatalf("%s: reference says %v, ir.Verify says %v\n%s", what, refErr, newErr, ir.PrintModule(m))
	case refErr != nil && refErr.Error() != newErr.Error():
		t.Fatalf("%s: diagnostics differ\nreference: %v\nir.Verify: %v", what, refErr, newErr)
	}
	return refErr != nil
}

// corruption is one seeded defect. apply reports whether the module had a
// place for it; mustReject is false for the shapes both verifiers accept
// (they are here to pin that agreement too).
type corruption struct {
	name       string
	mustReject bool
	apply      func(m *ir.Module, rng *rand.Rand) bool
}

func opsOf(m *ir.Module, keep func(*ir.Op) bool) []*ir.Op {
	var out []*ir.Op
	m.Walk(func(op *ir.Op) {
		if op != m.Op() && keep(op) {
			out = append(out, op)
		}
	})
	return out
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

func hasOperands(op *ir.Op) bool { return op.NumOperands() > 0 }
func hasResults(op *ir.Op) bool  { return op.NumResults() > 0 }

// regionBlocks lists the blocks that must end in a terminator.
func regionBlocks(m *ir.Module) []*ir.Block {
	var out []*ir.Block
	m.Walk(func(op *ir.Op) {
		if op == m.Op() {
			return
		}
		for ri := 0; ri < op.NumRegions(); ri++ {
			out = append(out, op.Region(ri).Block())
		}
	})
	return out
}

// ancestorIn climbs from op to the op that sits in blk, or nil.
func ancestorIn(op *ir.Op, blk *ir.Block) *ir.Op {
	for ; op != nil; op = op.ParentOp() {
		if op.Block() == blk {
			return op
		}
	}
	return nil
}

// rewire points a random operand of a random op among users at v.
func rewire(rng *rand.Rand, users []*ir.Op, v *ir.Value) bool {
	if len(users) == 0 {
		return false
	}
	u := pick(rng, users)
	u.SetOperand(rng.Intn(u.NumOperands()), v)
	return true
}

// nestedUse inserts, before main's terminator, an op of the given kind
// whose region reads a value defined earlier in main's body.
func nestedUse(m *ir.Module, holder *ir.Op) bool {
	body := slices.Collect(m.Funcs)[0].Region(0).Block()
	var v *ir.Value
	for o := body.First(); o != nil && v == nil; o = o.Next() {
		if o.NumResults() > 0 {
			v = o.Result(0)
		}
	}
	if v == nil {
		return false
	}
	ir.Before(body.Last()).Insert(holder)
	b := ir.AtEnd(holder.Region(0).Block())
	b.Create("test.use", []*ir.Value{v}, nil)
	fnc.NewReturn(b)
	return true
}

var corruptions = []corruption{
	{"def moved below its use", true, func(m *ir.Module, rng *rand.Rand) bool {
		type move struct{ def, below *ir.Op }
		var moves []move
		for _, def := range opsOf(m, hasResults) {
			for _, r := range def.Results() {
				for i := range r.NumUses() {
					if a := ancestorIn(r.Use(i).Op, def.Block()); a != nil && a != def {
						moves = append(moves, move{def, a})
					}
				}
			}
		}
		if len(moves) == 0 {
			return false
		}
		mv := pick(rng, moves)
		mv.def.MoveAfter(mv.below)
		return true
	}},
	{"value from a sibling region", true, func(m *ir.Module, rng *rand.Rand) bool {
		for _, ifOp := range opsOf(m, func(op *ir.Op) bool { return op.NumRegions() == 2 }) {
			var defs, users []*ir.Op
			ir.WalkBlock(ifOp.Region(0).Block(), func(o *ir.Op) {
				if hasResults(o) {
					defs = append(defs, o)
				}
			})
			ir.WalkBlock(ifOp.Region(1).Block(), func(o *ir.Op) {
				if hasOperands(o) {
					users = append(users, o)
				}
			})
			if len(defs) > 0 && rewire(rng, users, pick(rng, defs).Result(0)) {
				return true
			}
		}
		return false
	}},
	{"loop-local value after the loop", true, func(m *ir.Module, rng *rand.Rand) bool {
		for _, loop := range opsOf(m, func(op *ir.Op) bool { return op.Name() == "scf.for" }) {
			body := loop.Region(0).Block()
			locals := []*ir.Value{body.Arg(0)}
			ir.WalkBlock(body, func(o *ir.Op) {
				locals = append(locals, o.Results()...)
			})
			var users []*ir.Op
			for o := loop.Next(); o != nil; o = o.Next() {
				if hasOperands(o) {
					users = append(users, o)
				}
			}
			if rewire(rng, users, pick(rng, locals)) {
				return true
			}
		}
		return false
	}},
	{"use across an isolated-from-above op", true, func(m *ir.Module, _ *rand.Rand) bool {
		return nestedUse(m, fnc.NewFunc("nested", ir.FuncType(nil, nil)).Op)
	}},
	{"use across an op that is not isolated", false, func(m *ir.Module, _ *rand.Rand) bool {
		holder := ir.NewOp("test.region", nil, nil)
		holder.AddRegion()
		return nestedUse(m, holder)
	}},
	{"value of an erased op", true, func(m *ir.Module, rng *rand.Rand) bool {
		users := opsOf(m, hasOperands)
		if len(users) == 0 {
			return false
		}
		u := pick(rng, users)
		i := rng.Intn(u.NumOperands())
		tmp := ir.Before(u).Create("test.tmp", nil, []ir.Type{u.Operand(i).Type()})
		gone := tmp.Result(0)
		tmp.Erase()
		u.SetOperand(i, gone)
		return true
	}},
	{"nil operand", true, func(m *ir.Module, rng *rand.Rand) bool {
		return rewire(rng, opsOf(m, hasOperands), nil)
	}},
	{"dropped use entry", true, func(m *ir.Module, rng *rand.Rand) bool {
		users := opsOf(m, hasOperands)
		if len(users) == 0 {
			return false
		}
		u := pick(rng, users)
		i := rng.Intn(u.NumOperands())
		v := u.Operand(i)
		for j := range v.NumUses() {
			if use := v.Use(j); use.Op == u && use.Index == i {
				ir.DropUse(v, j)
				return true
			}
		}
		return false
	}},
	{"deleted terminator", true, func(m *ir.Module, rng *rand.Rand) bool {
		pick(rng, regionBlocks(m)).Last().Erase()
		return true
	}},
	{"terminator in mid-block", true, func(m *ir.Module, rng *rand.Rand) bool {
		blk := pick(rng, regionBlocks(m))
		at := blk.First()
		for n := rng.Intn(blk.Len()); n > 0; n-- {
			at = at.Next()
		}
		ir.Before(at).Create("scf.yield", nil, nil)
		return true
	}},
	{"an op's own result inside its region", false, func(m *ir.Module, rng *rand.Rand) bool {
		for _, op := range opsOf(m, func(op *ir.Op) bool { return op.NumResults() > 0 && op.NumRegions() > 0 }) {
			var users []*ir.Op
			ir.WalkBlock(op.Region(0).Block(), func(o *ir.Op) {
				if hasOperands(o) {
					users = append(users, o)
				}
			})
			if rewire(rng, users, op.Result(rng.Intn(op.NumResults()))) {
				return true
			}
		}
		return false
	}},
}

func TestVerifyAgreesWithReference(t *testing.T) {
	const (
		seedsPerProfile    = 50
		corruptionsPerSeed = 22 // every kind twice
	)
	applied := make([]int, len(corruptions))
	for _, prof := range []irgen.Profile{irgen.GemminiProfile(), irgen.OpenGeMMProfile()} {
		target, err := core.LookupTarget(prof.Accel)
		if err != nil {
			t.Fatal(err)
		}
		for index := 0; index < seedsPerProfile; index++ {
			seed := irgen.DeriveSeed(17, prof.Accel, index)
			prog, err := irgen.Generate(prof, seed)
			if err != nil {
				t.Fatal(err)
			}
			// Every state the compiler puts a module through, both
			// verifiers accepting each.
			states := []*ir.Module{prog.Module.Clone()}
			for _, p := range core.Pipelines {
				pm := target.PassPipeline(p)
				pm.CheckEach = func(pass string, _, after *ir.Module) error {
					what := fmt.Sprintf("%s seed %d, pipeline %s after %s", prof.Accel, seed, p, pass)
					if agree(t, what, after) {
						t.Fatalf("%s: both verifiers reject the compiler's own output", what)
					}
					states = append(states, after.Clone())
					return nil
				}
				if err := pm.Run(prog.Module.Clone()); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < corruptionsPerSeed; k++ {
				// A kind with no site in the drawn state passes its turn
				// to the next kind.
				m := pick(rng, states).Clone()
				for try := 0; try < len(corruptions); try++ {
					ki := (k + try) % len(corruptions)
					c := corruptions[ki]
					if !c.apply(m, rng) {
						continue
					}
					applied[ki]++
					what := fmt.Sprintf("%s seed %d, corruption %d (%s)", prof.Accel, seed, k, c.name)
					if rejected := agree(t, what, m); c.mustReject && !rejected {
						t.Fatalf("%s: accepted by both verifiers\n%s", what, ir.PrintModule(m))
					}
					break
				}
			}
		}
	}
	for ki, n := range applied {
		if n < seedsPerProfile {
			t.Errorf("corruption %q applied only %d times", corruptions[ki].name, n)
		}
	}
}
