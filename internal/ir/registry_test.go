package ir_test

// Tests of the op-kind registry: an immutable table published through an
// atomic pointer, and ops that resolve their kind once, in NewOp.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"configwall/internal/dialects/arith"
	"configwall/internal/ir"
)

// kindSeq makes every kind these tests register unique for the life of the
// process: the table is global and has no unregister, and CI runs the
// package with -count=2.
var kindSeq atomic.Int64

func freshKind(stem string) string {
	return fmt.Sprintf("regtest.%s%d", stem, kindSeq.Add(1))
}

// traits is every by-op query the registry answers.
func traits(op *ir.Op) [3]bool {
	return [3]bool{ir.IsPure(op), ir.IsTerminator(op), ir.IsConstant(op)}
}

// TestRegisterWhileCompiling: writers publish fresh kinds while readers
// build, clone, verify and canonicalise modules. Under -race this is the
// proof that readers need no lock; the assertions are that every reader
// sees a consistent table — the dialect kinds never flicker, and a kind a
// writer has finished registering is complete when seen.
func TestRegisterWhileCompiling(t *testing.T) {
	const writers, readers, rounds = 2, 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := freshKind("live")
				ir.Register(ir.OpInfo{Name: name, Traits: []ir.Trait{ir.TraitPure}, Summary: name})
				if info, ok := ir.Lookup(name); !ok || info.Summary != name || !info.HasTrait(ir.TraitPure) {
					t.Errorf("Lookup(%s) right after Register = %+v, %v", name, info, ok)
				}
				if op := ir.NewOp(name, nil, nil); !ir.IsPure(op) {
					t.Errorf("op %s built after Register is not pure", name)
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m := sampleModule().Clone()
				if err := ir.Verify(m); err != nil {
					t.Errorf("clone does not verify: %v", err)
				}
				ir.ApplyPatternsGreedy(m.Op(), nil)
				if err := ir.Verify(m); err != nil {
					t.Errorf("canonicalised clone does not verify: %v", err)
				}
				// The loop body's index cast feeds the setup, so the
				// constants must survive and still read as constants.
				if got := ir.CountOpsNamed(m, arith.OpConstant); got != 3 {
					t.Errorf("%d constants after canonicalisation, want 3", got)
				}
				if names := ir.RegisteredOps(); !sort.StringsAreSorted(names) {
					t.Errorf("RegisteredOps not sorted: %v", names)
				}
			}
		}()
	}
	wg.Wait()
}

// TestTraitQueriesDoNotAllocate pins the per-op path this table exists
// for: a field read, no lock, no hash, no OpInfo copy to the heap.
func TestTraitQueriesDoNotAllocate(t *testing.T) {
	m := buildSampleModule(t)
	var ops []*ir.Op
	m.Walk(func(op *ir.Op) { ops = append(ops, op) })
	ops = append(ops, ir.NewOp(freshKind("unregistered"), nil, nil))
	var sink bool
	if n := testing.AllocsPerRun(100, func() {
		for _, op := range ops {
			sink = ir.IsPure(op) || ir.IsTerminator(op) || ir.IsConstant(op) || sink
		}
	}); n != 0 {
		t.Errorf("trait queries allocate %.0f times per walk of %d ops, want 0", n, len(ops))
	}
	_ = sink
}

// TestOpBuiltBeforeRegisterStaysUnregistered is the ordering rule stated on
// Register: the kind is resolved when the op is built, not when it is
// queried.
func TestOpBuiltBeforeRegisterStaysUnregistered(t *testing.T) {
	name := freshKind("late")
	early := ir.NewOp(name, nil, []ir.Type{ir.I64})
	if got := traits(early); got != [3]bool{} {
		t.Fatalf("unregistered op answers %v, want all false", got)
	}
	folds := 0
	ir.Register(ir.OpInfo{
		Name:   name,
		Traits: []ir.Trait{ir.TraitPure, ir.TraitConstant},
		Verify: func(*ir.Op) error { return fmt.Errorf("verifier ran") },
		Fold:   func(*ir.Op) (*ir.Value, bool) { folds++; return nil, false },
	})
	// Asked twice: the answer cannot depend on when the query comes.
	for i := 0; i < 2; i++ {
		if got := traits(early); got != [3]bool{} {
			t.Errorf("query %d: op built before Register answers %v, want all false", i, got)
		}
	}
	want := [3]bool{true, false, true}
	if got := traits(ir.NewOp(name, nil, []ir.Type{ir.I64})); got != want {
		t.Errorf("op built after Register answers %v, want %v", got, want)
	}
	if got := traits(early.Clone(nil)); got != want {
		t.Errorf("clone made after Register answers %v, want %v", got, want)
	}

	// The verifier and the folder follow the same rule.
	m := ir.NewModule()
	m.Append(early)
	if err := ir.Verify(m); err != nil {
		t.Errorf("op built before Register ran the later verifier: %v", err)
	}
	ir.ApplyPatternsGreedy(m.Op(), nil)
	if folds != 0 || early.Block() == nil {
		t.Errorf("op built before Register was folded (%d calls) or erased as dead", folds)
	}
	m.Append(ir.NewOp(name, nil, []ir.Type{ir.I64}))
	if err := ir.Verify(m); err == nil || !strings.Contains(err.Error(), "verifier ran") {
		t.Errorf("op built after Register skipped its verifier: %v", err)
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	name := freshKind("dup")
	ir.Register(ir.OpInfo{Name: name, Summary: "first"})
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), name) {
			t.Errorf("second Register(%s) recovered %v, want a panic naming the op", name, p)
		}
		if info, _ := ir.Lookup(name); info.Summary != "first" {
			t.Errorf("failed duplicate replaced the entry: %+v", info)
		}
	}()
	ir.Register(ir.OpInfo{Name: name, Summary: "second"})
}

func TestLookupByName(t *testing.T) {
	if info, ok := ir.Lookup(arith.OpConstant); !ok || info.Name != arith.OpConstant || !info.HasTrait(ir.TraitConstant) {
		t.Errorf("Lookup(%s) = %+v, %v", arith.OpConstant, info, ok)
	}
	if info, ok := ir.Lookup("regtest.never-registered"); ok || info.Name != "" {
		t.Errorf("Lookup of an unknown name = %+v, %v; want zero, false", info, ok)
	}
	names := ir.RegisteredOps()
	if !sort.StringsAreSorted(names) {
		t.Errorf("RegisteredOps not sorted: %v", names)
	}
	if i := sort.SearchStrings(names, arith.OpConstant); i == len(names) || names[i] != arith.OpConstant {
		t.Errorf("RegisteredOps misses %s: %v", arith.OpConstant, names)
	}
}

// TestTraitsAgreeAcrossConstructionPaths: the builder, Clone and the parser
// all reach NewOp, so the same program answers every trait query the same
// way however it was made — including after one op is marked volatile.
func TestTraitsAgreeAcrossConstructionPaths(t *testing.T) {
	built := buildSampleModule(t)
	built.Funcs()[0].Region(0).Block().First().SetAttr("volatile", ir.UnitAttr{}) // the first constant
	parsed, err := ir.Parse(ir.PrintModule(built))
	if err != nil {
		t.Fatal(err)
	}
	collect := func(m *ir.Module) (names []string, answers [][3]bool) {
		m.Walk(func(op *ir.Op) {
			names = append(names, op.Name())
			answers = append(answers, traits(op))
		})
		return
	}
	wantNames, want := collect(built)
	// The sample must exercise every kind of answer, or agreement is vacuous:
	// pure, terminator, pure constant, volatile (impure) constant, impure.
	seen := map[[3]bool]bool{}
	for _, a := range want {
		seen[a] = true
	}
	for _, a := range [][3]bool{{true, false, false}, {false, true, false}, {true, false, true}, {false, false, true}, {}} {
		if !seen[a] {
			t.Fatalf("no op of the sample module answers %v", a)
		}
	}
	for name, m := range map[string]*ir.Module{"clone": built.Clone(), "parsed": parsed} {
		gotNames, got := collect(m)
		if fmt.Sprint(gotNames) != fmt.Sprint(wantNames) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s module answers differently from the built one:\n%v %v\nwant\n%v %v", name, gotNames, got, wantNames, want)
		}
	}
}
