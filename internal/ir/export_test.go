package ir

// DropUse removes the i-th entry of v's use list and leaves the operand slot
// that entry stood for alone: the one corruption the external tests need and
// no exported method can produce.
func DropUse(v *Value, i int) {
	v.uses = append(v.uses[:i:i], v.uses[i+1:]...)
}

// SlabSlots reports, over the slabs the ops of m's tree point to, how many
// slots their chunks hold and how many of those hold an op of the tree
// now. A root's slab is one it owns, not one it was drawn from.
func SlabSlots(m *Module) (live, slots int) {
	seen := map[*slab]bool{}
	Walk(m.op, func(op *Op) {
		s := op.slab
		if s == nil {
			return
		}
		if !seen[s] {
			seen[s] = true
			slots += s.slots
		}
		if s.owner != op {
			live++
		}
	})
	return live, slots
}

// UseSlots reports, over the slabs the ops of m's tree point to, how many
// entries their use chunks hold and how many of those hold a use of the
// tree now: the uses of every value of m whose list has left its inline
// room.
func UseSlots(m *Module) (live, slots int) {
	seen := map[*slab]bool{}
	count := func(vs []*Value) {
		for _, v := range vs {
			if cap(v.uses) > 1 {
				live += len(v.uses)
			}
		}
	}
	Walk(m.op, func(op *Op) {
		if s := op.slab; s != nil && !seen[s] {
			seen[s] = true
			slots += s.useSlots
		}
		count(op.results)
		for _, r := range op.regions {
			count(r.block.args)
		}
	})
	return live, slots
}
