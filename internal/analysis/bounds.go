package analysis

import (
	"slices"

	"configwall/internal/accel"
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

// Bounds are static lower bounds on the configuration traffic a program
// must generate when executed: at least MinLaunches accelerator jobs and at
// least MinConfigInstrs writes on the configuration interface (setup
// traffic plus the one interface write each launch command itself is).
// They are sound against the simulator's counters — any execution satisfies
// counters >= bounds — because unknown-trip loops and branches contribute
// the minimum over their outcomes (zero, or the cheaper arm).
type Bounds struct {
	MinLaunches     int
	MinConfigInstrs int
}

func (b Bounds) add(o Bounds) Bounds {
	return Bounds{b.MinLaunches + o.MinLaunches, b.MinConfigInstrs + o.MinConfigInstrs}
}

func (b Bounds) scale(n int) Bounds {
	return Bounds{b.MinLaunches * n, b.MinConfigInstrs * n}
}

func (b Bounds) min(o Bounds) Bounds {
	out := b
	if o.MinLaunches < out.MinLaunches {
		out.MinLaunches = o.MinLaunches
	}
	if o.MinConfigInstrs < out.MinConfigInstrs {
		out.MinConfigInstrs = o.MinConfigInstrs
	}
	return out
}

// StaticBounds computes the module's configuration-traffic lower bounds:
// the sum over its functions (difftest programs have a single entry
// function, so the sum is the entry's bound).
func StaticBounds(m *ir.Module) Bounds {
	var b Bounds
	for f := range m.Funcs {
		b = b.add(boundsBlock(f.Region(0).Block()))
	}
	return b
}

func boundsBlock(blk *ir.Block) Bounds {
	var b Bounds
	for op := blk.First(); op != nil; op = op.Next() {
		switch op.Name() {
		case accfg.OpSetup:
			s, _ := accfg.AsSetup(op)
			b.MinConfigInstrs += configInstrsFor(s)
		case accfg.OpLaunch:
			b.MinLaunches++
			b.MinConfigInstrs++ // the launch command is itself one interface write
		case scf.OpFor:
			// An unknown trip count bounds nothing from below.
			loop := scf.For{Op: op}
			if trips, _ := loop.ConstantTripCount(); trips > 0 {
				b = b.add(boundsBlock(loop.Body()).scale(int(trips)))
			}
		case scf.OpIf:
			branch := scf.If{Op: op}
			b = b.add(boundsBlock(branch.Then()).min(boundsBlock(branch.Else())))
		}
	}
	return b
}

// configInstrsFor returns how many configuration instructions the lowering
// emits for one setup: the number of distinct writes of the registered
// port its fields touch, or one per field when the accelerator or the field
// is unknown. Used by the static bounds analysis; exact for lower.Accfg,
// and a valid lower bound for anything else.
func configInstrsFor(s accfg.Setup) int {
	port := accel.PortFor(s.Accelerator())
	if port == nil {
		return s.NumFields()
	}
	touched := make([]*accel.ConfigWrite, 0, 32)
	n := 0
	for i := 0; i < s.NumFields(); i++ {
		w := port.WriteFor(s.FieldName(i))
		if w != nil && slices.Contains(touched, w) {
			continue
		}
		touched = append(touched, w)
		n++
	}
	return n
}
