package passes

import (
	"configwall/internal/analysis"
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

// Test-only toggles that disable individual overlap soundness guards,
// re-introducing the four historical bug classes the guards were added for
// (each originally found by differential fuzzing, now also caught by the
// static checker — overlap_repro_test.go replays them and asserts
// analysis.CompareModules rejects the miscompiled output). Never set
// outside tests.
var (
	overlapSkipNestedGuard  bool // pipelining: ignore accfg ops nested in the body
	overlapSkipMemrefGuard  bool // pipelining: ignore host memory ops in the body
	overlapSkipPhantomGuard bool // pipelining: ignore launches reachable after the loop
	overlapSkipStagingGuard bool // straight-line: hop setups over staging writers
)

// Overlap returns the configuration-computation overlap pass (paper §5.5).
// It only applies to accelerators with concurrent-configuration hardware
// (staging registers); concurrent names whether a given accelerator
// supports it.
//
// The pass performs two rewrites:
//
//  1. Loop software-pipelining (paper Figure 9, second -> third block): in a
//     loop whose body is setup -> launch -> await, the launch is moved to
//     the top of the body reading the loop-carried state (configured by the
//     previous iteration), and the setup is retargeted to the *next*
//     iteration's values, so it executes while the accelerator runs.
//  2. Straight-line overlap: a setup whose input state was launched and is
//     awaited earlier in the same block moves up in front of the await,
//     hiding its latency behind the in-flight computation.
func Overlap(concurrent func(accelerator string) bool) ir.Pass {
	return ir.PassFunc{
		PassName: "accfg-overlap",
		Fn: func(m *ir.Module) error {
			var loops []scf.For
			m.Walk(func(op *ir.Op) {
				if loop, ok := scf.AsFor(op); ok {
					loops = append(loops, loop)
				}
			})
			for _, loop := range loops {
				pipelineLoop(loop, concurrent)
			}
			// Straight-line overlap, applied to every block (including the
			// loop preheaders the pipelining just created).
			var blocks []*ir.Block
			m.Walk(func(op *ir.Op) {
				for ri := 0; ri < op.NumRegions(); ri++ {
					blocks = append(blocks, op.Region(ri).Block())
				}
			})
			for _, blk := range blocks {
				overlapBlock(blk, concurrent)
			}
			return nil
		},
	}
}

// pipelineLoop rewrites one loop into pipelined form when its body matches
// the setup/launch/await shape. Reports whether it changed the loop.
func pipelineLoop(loop scf.For, concurrent func(string) bool) bool {
	body := loop.Body()
	if loop.Yield() == nil {
		return false
	}

	// Find the pattern ops at depth 1.
	var setupOp, launchOp, awaitOp *ir.Op
	for op := body.First(); op != nil; op = op.Next() {
		switch op.Name() {
		case accfg.OpSetup:
			if setupOp != nil {
				return false // multiple setups: not the simple shape
			}
			setupOp = op
		case accfg.OpLaunch:
			if launchOp != nil {
				return false
			}
			launchOp = op
		case accfg.OpAwait:
			if awaitOp != nil {
				return false
			}
			awaitOp = op
		}
	}
	if setupOp == nil || launchOp == nil || awaitOp == nil {
		return false
	}
	// The depth-1 scan above cannot see accfg ops nested in scf.if/scf.for
	// inside the body; a nested launch would commit the rotated setup's
	// *next*-iteration configuration after the rewrite (same phantom-state
	// class as the LaunchReachableAfter guard below — found by differential
	// fuzzing review). Likewise, moving the launch to the top of the body
	// reorders the device's memory effects (the job reads and writes main
	// memory at launch time) with every host memref.load/store that used to
	// precede it — there is no alias analysis, so any host memory op in the
	// body blocks pipelining. Both hazards are the shared interference
	// query; the toggled walk below exists only for the bug-replay tests.
	unsafe := false
	for op := body.First(); op != nil; op = op.Next() {
		if op == setupOp || op == launchOp || op == awaitOp {
			continue
		}
		if !overlapSkipNestedGuard && !overlapSkipMemrefGuard {
			if analysis.SubtreePipelineHazard(op) {
				unsafe = true
			}
			continue
		}
		ir.Walk(op, func(o *ir.Op) {
			switch o.Name() {
			case accfg.OpSetup, accfg.OpLaunch, accfg.OpAwait:
				if !overlapSkipNestedGuard {
					unsafe = true
				}
			default:
				if analysis.HostMemoryOp(o) && !overlapSkipMemrefGuard {
					unsafe = true
				}
			}
		})
	}
	if unsafe {
		return false
	}
	s, _ := accfg.AsSetup(setupOp)
	if !concurrent(s.Accelerator()) {
		return false
	}
	l, _ := accfg.AsLaunch(launchOp)
	a, _ := accfg.AsAwait(awaitOp)

	// Shape requirements: setup chains from the loop-carried state arg,
	// launch launches the setup's state, await awaits that launch, and the
	// yield carries the setup's state back around.
	if !s.HasInState() {
		return false
	}
	arg := s.InState()
	carrier, argIdx, ok := scf.Carried(arg)
	if !ok || !arg.IsBlockArg() || carrier != loop {
		return false
	}
	if l.State() != s.State() || a.Token() != l.Token() {
		return false
	}
	if loop.Yielded(argIdx) != s.State() {
		return false
	}
	if !setupOp.IsBefore(launchOp) || !launchOp.IsBefore(awaitOp) {
		return false
	}
	// Only state-preserving ops may sit between setup and launch, since the
	// launch moves above them.
	for o := setupOp.Next(); o != nil && o != launchOp; o = o.Next() {
		if accfg.EffectsOf(o) == ir.EffectsAll {
			return false
		}
	}
	// The setup's in-loop input slice must be pure so it can be recomputed
	// for iteration i+1. It may only reference the induction variable and
	// the state arg among the loop's block arguments — the prologue clone
	// remaps exactly those two.
	iv := loop.InductionVar()
	slice, ok := pureInputSlice(setupOp, body, map[*ir.Value]bool{iv: true, arg: true})
	if !ok {
		return false
	}
	// Pipelining leaves the *next* iteration's (phantom) configuration in
	// the staging registers when the loop exits: the rotated in-loop setup
	// computes iteration i+1's fields, and the final iteration's writes are
	// never launched. Any same-accelerator launch that can execute after
	// the loop — later in the function, or on the next iteration of an
	// enclosing loop — would observe that phantom state instead of the last
	// real configuration, so the rewrite must bail (found by differential
	// fuzzing; the paper's workloads always pipeline the last launch site).
	if !overlapSkipPhantomGuard && analysis.LaunchReachableAfter(loop.Op, s.Accelerator()) {
		return false
	}

	// 1. Prologue: clone the setup (and its in-loop slice) before the loop,
	//    with iv -> lb and the state arg -> the loop's init state.
	mapping := map[*ir.Value]*ir.Value{iv: loop.LowerBound(), arg: loop.InitArg(argIdx)}
	pb := ir.Before(loop.Op)
	for _, o := range slice {
		pb.Clone(o, mapping)
	}
	proSetup := pb.Clone(setupOp, mapping)
	loop.SetInitArg(argIdx, proSetup.Result(0))

	// 2. Launch now reads the loop-carried state and moves to the top of
	//    the body (before the setup and its input slice).
	launchOp.SetOperand(0, arg)
	first := body.First()
	if first != launchOp {
		launchOp.MoveBefore(first)
	}

	// 3. The in-loop setup computes the *next* iteration's configuration:
	//    clone its input slice with iv -> iv+step, after the launch.
	ib := ir.After(launchOp)
	ivNext := ib.Create("arith.addi", []*ir.Value{iv, loop.Step()}, []ir.Type{iv.Type()}).Result(0)
	ivNext.SetName("i_next")
	remap := map[*ir.Value]*ir.Value{iv: ivNext}
	sb := ir.Before(setupOp)
	for _, o := range slice {
		sb.Clone(o, remap)
	}
	for i, operand := range setupOp.Operands() {
		if nv, ok := remap[operand]; ok {
			setupOp.SetOperand(i, nv)
		}
	}
	// The original slice ops may now be dead; greedy DCE cleans them later.
	return true
}

// pureInputSlice returns the ops inside body that (transitively) compute the
// setup's field operands, in program order. ok=false when any of them is
// impure, carries regions, or references a block argument outside
// allowedArgs.
func pureInputSlice(setupOp *ir.Op, body *ir.Block, allowedArgs map[*ir.Value]bool) ([]*ir.Op, bool) {
	needed := map[*ir.Op]bool{}
	var visit func(v *ir.Value) bool
	visit = func(v *ir.Value) bool {
		if v.IsBlockArg() {
			if v.OwnerBlock() == body && !allowedArgs[v] {
				return false
			}
			return true // remapped (iv, state arg) or defined in an enclosing scope
		}
		def := v.DefiningOp()
		if def == nil || def.Block() != body {
			return true // defined outside the loop: invariant
		}
		if needed[def] {
			return true
		}
		if !ir.IsPure(def) || def.NumRegions() != 0 {
			return false
		}
		needed[def] = true
		for i := 0; i < def.NumOperands(); i++ {
			if !visit(def.Operand(i)) {
				return false
			}
		}
		return true
	}
	for _, f := range setup(setupOp).Fields() {
		if !visit(f.Value) {
			return nil, false
		}
	}
	var out []*ir.Op
	for o := body.First(); o != nil; o = o.Next() {
		if needed[o] {
			out = append(out, o)
		}
	}
	return out, true
}

func setup(op *ir.Op) accfg.Setup {
	s, _ := accfg.AsSetup(op)
	return s
}

// overlapBlock applies the straight-line overlap rewrite within one block:
// setups whose input state is in flight (launched, await pending later in
// the block before the setup) move in front of the await.
func overlapBlock(blk *ir.Block, concurrent func(string) bool) bool {
	changed := false
	for _, op := range blk.Ops() {
		s, ok := accfg.AsSetup(op)
		if !ok || op.Block() != blk || !s.HasInState() || !concurrent(s.Accelerator()) {
			continue
		}
		// Find a launch of the setup's input state earlier in this block.
		launchOp := findLaunchOf(s.InState(), blk)
		if launchOp == nil || !launchOp.IsBefore(op) {
			continue
		}
		// Find the await of that launch between the launch and the setup.
		l, _ := accfg.AsLaunch(launchOp)
		var awaitOp *ir.Op
		token := l.Token()
		for i := range token.NumUses() {
			if u := token.Use(i); u.Op.Name() == accfg.OpAwait && u.Op.Block() == blk {
				awaitOp = u.Op
			}
		}
		if awaitOp == nil || !awaitOp.IsBefore(op) {
			continue
		}
		// Everything the setup needs that is defined between the await and
		// the setup must be pure and moves along.
		movable, ok := movableSlice(op, awaitOp)
		if !ok {
			continue
		}
		// All skipped-over ops must preserve accelerator state, and none of
		// them may interact with this accelerator's staging registers:
		// hopping over another setup would reorder configuration writes, and
		// hopping over a launch would make that launch commit the moved
		// setup's values instead of the configuration it launched with in
		// program order (found by differential fuzzing).
		safe := true
		for o := awaitOp; o != nil && o != op; o = o.Next() {
			if movableContains(movable, o) || o == awaitOp {
				continue
			}
			if accfg.EffectsOf(o) == ir.EffectsAll {
				safe = false
				break
			}
			if !overlapSkipStagingGuard && analysis.TouchesStaging(o, s.Accelerator()) {
				safe = false
				break
			}
		}
		if !safe {
			continue
		}
		for _, mo := range movable {
			mo.MoveBefore(awaitOp)
		}
		op.MoveBefore(awaitOp)
		changed = true
	}
	return changed
}

func movableContains(ops []*ir.Op, op *ir.Op) bool {
	for _, o := range ops {
		if o == op {
			return true
		}
	}
	return false
}

// findLaunchOf returns the accfg.launch in blk whose state operand is state.
func findLaunchOf(state *ir.Value, blk *ir.Block) *ir.Op {
	for i := range state.NumUses() {
		if u := state.Use(i); u.Op.Name() == accfg.OpLaunch && u.Op.Block() == blk {
			return u.Op
		}
	}
	return nil
}

// movableSlice collects the pure ops strictly between barrier and op that
// op's operands transitively depend on, in program order. ok=false when an
// impure dependency blocks the move.
func movableSlice(op *ir.Op, barrier *ir.Op) ([]*ir.Op, bool) {
	blk := op.Block()
	between := map[*ir.Op]bool{}
	for o := barrier.Next(); o != nil && o != op; o = o.Next() {
		between[o] = true
	}
	needed := map[*ir.Op]bool{}
	var visit func(v *ir.Value) bool
	visit = func(v *ir.Value) bool {
		def := v.DefiningOp()
		if def == nil || !between[def] {
			return true
		}
		if needed[def] {
			return true
		}
		if !ir.IsPure(def) || def.NumRegions() != 0 {
			return false
		}
		needed[def] = true
		for i := 0; i < def.NumOperands(); i++ {
			if !visit(def.Operand(i)) {
				return false
			}
		}
		return true
	}
	for i := 0; i < op.NumOperands(); i++ {
		if !visit(op.Operand(i)) {
			return nil, false
		}
	}
	var out []*ir.Op
	for o := blk.First(); o != nil; o = o.Next() {
		if needed[o] {
			out = append(out, o)
		}
	}
	return out, true
}
