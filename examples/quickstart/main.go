// Quickstart: build a small accelerator program in the accfg IR, run the
// paper's optimization pipeline on it, and look at what changed.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
	"configwall/internal/passes"
)

func main() {
	// Build the paper's Figure 9 input: a loop that reconfigures the
	// accelerator every iteration even though only one field changes.
	m := ir.NewModule()
	f := fnc.NewFunc("kernel", ir.FuncType([]ir.Type{ir.I64}, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())

	ptrA := f.Body().Arg(0)
	ptrA.SetName("ptrA")
	lb := arith.NewConstant(b, 0, ir.Index)
	ub := arith.NewConstant(b, 10, ir.Index)
	step := arith.NewConstant(b, 1, ir.Index)
	loop := scf.NewFor(b, lb, ub, step)

	lbld := ir.AtEnd(loop.Body())
	i := arith.NewIndexCast(lbld, loop.InductionVar(), ir.I64)
	setup := accfg.NewSetup(lbld, "gemm", nil, []accfg.Field{
		{Name: "A", Value: ptrA}, // loop-invariant: will be hoisted
		{Name: "i", Value: i},    // changes every iteration: stays
	})
	launch := accfg.NewLaunch(lbld, setup.State())
	accfg.NewAwait(lbld, launch.Token())
	scf.NewYield(lbld)
	fnc.NewReturn(b)

	fmt.Println("=== before optimization ===")
	fmt.Print(ir.PrintModule(m))

	pm := ir.NewPassManager(
		passes.TraceStates(),              // §5.3: connect setups into state chains
		passes.HoistLoopInvariantFields(), // §5.4.1: move invariant fields out
		passes.Dedup(),                    // §5.4: drop redundant writes
		passes.MergeSetups(),
		passes.RemoveEmptySetups(),
		passes.Overlap(func(string) bool { return true }), // §5.5: software-pipeline
		passes.Canonicalize(),
	)
	log, err := pm.Log(m)
	if err != nil {
		panic(err)
	}

	fmt.Println("\n=== after optimization ===")
	fmt.Print(ir.PrintModule(m))

	fmt.Println("\npass log:")
	for _, line := range log {
		fmt.Println("  " + line)
	}
	fmt.Println("\nThe loop now launches from the loop-carried state and prepares the")
	fmt.Println("next iteration's configuration while the accelerator runs (Figure 9).")
}
