package difftest

// Automatic test-case shrinking: given a module that diverges, greedily
// apply structure-removing edits (delete a launch block, a loop, a branch;
// unwrap a loop body; drop a configuration field group; unchain a setup)
// and keep each edit whose result still reproduces a divergence of the same
// kind on the same pipeline. Every edit works on a fresh clone, so a
// rejected candidate never corrupts the current witness, and edits that
// would make the *baseline* fail (e.g. dropping a required address group)
// are rejected by the same predicate.

import (
	"configwall/internal/core"
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
	"configwall/internal/irgen"
)

// ShrinkBudget bounds the number of candidate evaluations per shrink; each
// evaluation compiles and co-simulates the candidate through every checked
// pipeline, so the budget also bounds shrink latency.
const ShrinkBudget = 2000

// ShrinkResult reports a completed shrink.
type ShrinkResult struct {
	// Module is the smallest witness found (a clone; the input is intact).
	Module *ir.Module
	// Steps counts accepted edits, Attempts all evaluated candidates.
	Steps, Attempts int
	// Ops is the op count of the minimized module.
	Ops int
}

// Shrink minimizes prog.Module while a divergence with want's kind and
// pipeline keeps reproducing under opts. The inputs (buffers, scalar) stay
// fixed — they are derived from the seed, not the module.
func Shrink(t core.Target, prog irgen.Program, want Divergence, opts Options) ShrinkResult {
	reproduces := func(m *ir.Module) bool {
		rep := CheckModule(t, m, prog, opts)
		if rep.Invalid {
			return false
		}
		for _, d := range rep.Divergences {
			if d.Kind == want.Kind && d.Pipeline == want.Pipeline {
				return true
			}
		}
		return false
	}

	cur := prog.Module.Clone()
	res := ShrinkResult{}
	ctx := newShrinkCtx(prog.Accel)
	for {
		applied := false
		for _, e := range ctx.enumerateEdits(cur) {
			if res.Attempts >= ShrinkBudget {
				applied = false
				break
			}
			res.Attempts++
			cand, ok := ctx.applyEdit(cur, e)
			if !ok {
				continue
			}
			if ir.Verify(cand) != nil {
				continue
			}
			if reproduces(cand) {
				cur = cand
				res.Steps++
				applied = true
				break
			}
		}
		if !applied {
			break
		}
	}
	res.Module = cur
	res.Ops = ir.CountOps(cur)
	return res
}

// editKind enumerates shrink edits, tried in this order: structural
// deletions first (big wins), then field-level reductions.
type editKind int

const (
	editDeleteOp editKind = iota // erase a result-less op subtree (loop/if/store/await)
	editUnwrapLoop
	editDeleteLaunch // launch with unused token
	editDeleteSetup
	editDropField
	editUnchain
)

type edit struct {
	kind editKind
	idx  int // pre-order op index in the module
	arg  int // field index for editDropField (anchor of its group)
}

// shrinkCtx carries the generator contract the shrinker must preserve:
// on bit-packed interfaces fields sharing one configuration instruction
// must be dropped together, or the chain-less baseline lowering would pack
// zeros into the orphaned sibling slots and the "divergence" the shrinker
// chases would be a generator-contract artifact, not the original bug.
type shrinkCtx struct {
	// siblings maps a field name to every field of its group (itself
	// included); fields without a profile entry map to themselves.
	siblings map[string][]string
}

func newShrinkCtx(accel string) *shrinkCtx {
	ctx := &shrinkCtx{siblings: map[string][]string{}}
	prof, err := irgen.ProfileFor(accel)
	if err != nil {
		return ctx
	}
	for _, grp := range prof.Groups {
		names := make([]string, len(grp.Fields))
		for i, f := range grp.Fields {
			names[i] = f.Name
		}
		for _, n := range names {
			ctx.siblings[n] = names
		}
	}
	return ctx
}

// groupOf returns the whole group of a field (at minimum the field itself).
func (ctx *shrinkCtx) groupOf(field string) []string {
	if g, ok := ctx.siblings[field]; ok {
		return g
	}
	return []string{field}
}

// opIndex assigns pre-order indices; clones of the same module walk
// identically, so an index found during enumeration addresses the same op
// in a fresh clone.
func opAt(m *ir.Module, idx int) *ir.Op {
	var found *ir.Op
	n := 0
	m.Walk(func(o *ir.Op) {
		if n == idx {
			found = o
		}
		n++
	})
	return found
}

// enumerateEdits lists the candidate edits for the current witness,
// structural deletions before local reductions.
func (ctx *shrinkCtx) enumerateEdits(m *ir.Module) []edit {
	var structural, local []edit
	n := 0
	m.Walk(func(o *ir.Op) {
		idx := n
		n++
		switch o.Name() {
		case scf.OpFor:
			if o.NumResults() == 0 {
				structural = append(structural, edit{kind: editDeleteOp, idx: idx})
			}
			structural = append(structural, edit{kind: editUnwrapLoop, idx: idx})
		case scf.OpIf:
			if o.NumResults() == 0 {
				structural = append(structural, edit{kind: editDeleteOp, idx: idx})
			}
		case "memref.store", accfg.OpAwait:
			structural = append(structural, edit{kind: editDeleteOp, idx: idx})
		case accfg.OpLaunch:
			if o.Result(0).NumUses() == 0 {
				structural = append(structural, edit{kind: editDeleteLaunch, idx: idx})
			}
		case accfg.OpSetup:
			s, _ := accfg.AsSetup(o)
			local = append(local, edit{kind: editDeleteSetup, idx: idx})
			if s.HasInState() {
				local = append(local, edit{kind: editUnchain, idx: idx})
			}
			// One drop candidate per field *group* present: the first
			// member field anchors the edit, and applyEdit removes the
			// whole group (group-atomicity contract).
			seen := map[string]bool{}
			for fi, name := range s.FieldNames() {
				anchor := ctx.groupOf(name)[0]
				if seen[anchor] {
					continue
				}
				seen[anchor] = true
				local = append(local, edit{kind: editDropField, idx: idx, arg: fi})
			}
		}
	})
	return append(structural, local...)
}

// applyEdit clones m and applies e; ok=false when the edit does not apply
// to the addressed op (e.g. a setup whose state is still needed).
func (ctx *shrinkCtx) applyEdit(m *ir.Module, e edit) (*ir.Module, bool) {
	clone := m.Clone()
	op := opAt(clone, e.idx)
	if op == nil {
		return nil, false
	}
	switch e.kind {
	case editDeleteOp:
		for _, r := range op.Results() {
			if r.NumUses() > 0 {
				return nil, false
			}
		}
		op.Erase()
	case editUnwrapLoop:
		// One copy of the body in place of the loop, the induction variable
		// bound to the lower bound (generated loops carry no results).
		loop, ok := scf.AsFor(op)
		if !ok || op.NumResults() != 0 {
			return nil, false
		}
		loop.InlineOnce()
	case editDeleteLaunch:
		if op.Name() != accfg.OpLaunch || op.Result(0).NumUses() > 0 {
			return nil, false
		}
		op.Erase()
	case editDeleteSetup:
		s, ok := accfg.AsSetup(op)
		if !ok {
			return nil, false
		}
		switch {
		case s.State().NumUses() == 0:
			op.Erase()
		case s.HasInState():
			in := s.InState()
			s.State().ReplaceAllUsesWith(in)
			op.Erase()
		default:
			return nil, false
		}
	case editDropField:
		s, ok := accfg.AsSetup(op)
		if !ok {
			return nil, false
		}
		names := s.FieldNames()
		if e.arg >= len(names) {
			return nil, false
		}
		removed := false
		for _, sibling := range ctx.groupOf(names[e.arg]) {
			removed = s.RemoveField(sibling) || removed
		}
		if !removed {
			return nil, false
		}
	case editUnchain:
		s, ok := accfg.AsSetup(op)
		if !ok || !s.HasInState() {
			return nil, false
		}
		s.ClearInState()
	}
	gcDeadPure(clone)
	return clone, true
}

// gcDeadPure erases pure ops whose results are all unused, iterating to a
// fixpoint so whole addressing chains disappear with the setup that
// consumed them.
func gcDeadPure(m *ir.Module) {
	for {
		var dead []*ir.Op
		m.Walk(func(o *ir.Op) {
			if !ir.IsPure(o) {
				return
			}
			if o.NumRegions() > 0 || o.NumResults() == 0 {
				return
			}
			for _, r := range o.Results() {
				if r.NumUses() > 0 {
					return
				}
			}
			dead = append(dead, o)
		})
		if len(dead) == 0 {
			return
		}
		for _, o := range dead {
			if o.Block() != nil {
				o.Erase()
			}
		}
	}
}
