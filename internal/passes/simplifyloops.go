package passes

import (
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

// SimplifyTrivialLoops returns the pass that removes scf.for loops with a
// statically-known trip count of zero (replaced by their initial values) or
// one (body inlined with the induction variable bound to the lower bound).
//
// This models the loop simplifications a compiler performs when it can see
// through the loop body — exactly what volatile inline assembly prevents
// (paper §3.1) and what the accfg abstraction re-enables: the paper
// attributes part of the Gemmini uplift to "better constant folding and
// loop unrolling" (§6.1). It therefore belongs to the accfg pipelines, not
// to the volatile-asm baseline.
func SimplifyTrivialLoops() ir.Pass { return simplifyTrivialLoopsPass }

// simplifyTrivialLoopsPass holds no state: one value serves every pipeline.
var simplifyTrivialLoopsPass ir.Pass = ir.PassFunc{
	PassName: "simplify-trivial-loops",
	Fn: func(m *ir.Module) error {
		for {
			var target scf.For
			trip := int64(-1)
			m.Walk(func(op *ir.Op) {
				loop, ok := scf.AsFor(op)
				if target.Op != nil || !ok {
					return
				}
				if t, ok := loop.ConstantTripCount(); ok && t <= 1 {
					target = loop
					trip = t
				}
			})
			if target.Op == nil {
				return nil
			}
			if trip == 1 {
				target.InlineOnce()
				continue
			}
			for i := 0; i < target.NumIterArgs(); i++ {
				target.Result(i).ReplaceAllUsesWith(target.InitArg(i))
			}
			target.Op.Erase()
		}
	},
}
