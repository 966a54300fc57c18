package passes

import (
	"configwall/internal/analysis"
	"configwall/internal/dialects/accfg"
	"configwall/internal/ir"
)

// Dedup returns the configuration-deduplication pass (paper §5.4): field
// writes whose value is already guaranteed to be in the target register are
// removed from accfg.setup ops. SSA-value identity is used as the proxy for
// runtime-value equality, relying on CSE/canonicalization having run first.
func Dedup() ir.Pass { return dedupPass }

// dedupPass holds no state: one value serves every pipeline.
var dedupPass ir.Pass = ir.PassFunc{
	PassName: "accfg-dedup",
	Fn: func(m *ir.Module) error {
		for f := range m.Funcs {
			fs := analysis.AnalyzeFields(f)
			ir.Walk(f, func(op *ir.Op) {
				s, ok := accfg.AsSetup(op)
				if !ok || !s.HasInState() {
					return
				}
				in := s.InState()
				for _, field := range s.Fields() {
					if fs.Known(in, field.Name) == field.Value {
						s.RemoveField(field.Name)
					}
				}
			})
		}
		return nil
	},
}

// RemoveEmptySetups returns the cleanup pass that erases accfg.setup ops
// with no remaining field writes, forwarding their input state (or erasing
// outright when the produced state is unused).
func RemoveEmptySetups() ir.Pass { return removeEmptySetupsPass }

// removeEmptySetupsPass holds no state: one value serves every pipeline.
var removeEmptySetupsPass ir.Pass = ir.PassFunc{
	PassName: "accfg-remove-empty-setups",
	Fn: func(m *ir.Module) error {
		changed := true
		for changed {
			changed = false
			var empties []*ir.Op
			m.Walk(func(op *ir.Op) {
				if s, ok := accfg.AsSetup(op); ok && s.NumFields() == 0 {
					empties = append(empties, op)
				}
			})
			for _, op := range empties {
				s, _ := accfg.AsSetup(op)
				switch {
				case s.HasInState():
					s.State().ReplaceAllUsesWith(s.InState())
					op.Erase()
					changed = true
				case s.State().NumUses() == 0:
					op.Erase()
					changed = true
				}
			}
		}
		return nil
	},
}

// MergeSetups returns the cleanup pass that folds chains of setups with no
// launch in between into a single setup (paper §5.4.1, final clean-up).
// A setup whose produced state is consumed only by another setup in the
// same block is merged into that later setup; later writes win.
func MergeSetups() ir.Pass { return mergeSetupsPass }

// mergeSetupsPass holds no state: one value serves every pipeline.
var mergeSetupsPass ir.Pass = ir.PassFunc{
	PassName: "accfg-merge-setups",
	Fn: func(m *ir.Module) error {
		changed := true
		for changed {
			changed = false
			var candidates []*ir.Op
			m.Walk(func(op *ir.Op) {
				if _, ok := accfg.AsSetup(op); ok {
					candidates = append(candidates, op)
				}
			})
			for _, op := range candidates {
				if op.Block() == nil {
					continue
				}
				if mergeIntoSuccessor(op) {
					changed = true
				}
			}
		}
		return nil
	},
}

// mergeIntoSuccessor merges setup a into its unique consumer setup, when
// that consumer chains directly from a within the same block.
func mergeIntoSuccessor(aOp *ir.Op) bool {
	a, _ := accfg.AsSetup(aOp)
	state := a.State()
	if state.NumUses() != 1 {
		return false
	}
	use := state.Use(0)
	b, ok := accfg.AsSetup(use.Op)
	if !ok || use.Index != 0 || !b.HasInState() || b.InState() != state {
		return false
	}
	if b.Op.Block() != aOp.Block() {
		// Merging across region boundaries would change how often the
		// fields are written (e.g. hoisted writes re-entering a loop).
		return false
	}
	// Prepend a's fields that b does not overwrite.
	bNames := map[string]bool{}
	for _, n := range b.FieldNames() {
		bNames[n] = true
	}
	var carried []accfg.Field
	for _, f := range a.Fields() {
		if !bNames[f.Name] {
			carried = append(carried, f)
		}
	}
	// Rebuild b's field list as carried ++ b.Fields().
	existing := b.Fields()
	for _, f := range append([]accfg.Field{}, existing...) {
		b.RemoveField(f.Name)
	}
	if in := a.InState(); in != nil {
		b.SetInState(in)
	} else {
		b.ClearInState()
	}
	for _, f := range carried {
		b.AddField(f.Name, f.Value)
	}
	for _, f := range existing {
		b.AddField(f.Name, f.Value)
	}
	aOp.Erase()
	return true
}
