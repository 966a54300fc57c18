package analysis

import (
	"fmt"

	"configwall/internal/accel"
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/memref"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

// The flow summary is the fixpoint counterpart of the path enumerator in
// exec.go: instead of one trace per feasible path it computes, via the
// generic Forward solver, a single join-over-all-paths abstract state and
// records the staging configuration each launch site can observe. It never
// gives up (loops with unknown bounds just join to ⊤), which makes it the
// right engine for the human-facing `cwopt -analyze` report.

// LaunchInfo is one static launch site with the join of every abstract
// staging configuration it can commit.
type LaunchInfo struct {
	Accel  string
	Fields FieldState
}

// FuncSummary is the flow summary of one function: its launch sites in
// program (pre-order) position and the static lower bounds on its
// configuration traffic.
type FuncSummary struct {
	Name     string
	Launches []LaunchInfo
	Bounds   Bounds
}

// ModuleSummary aggregates per-function flow summaries in module order.
type ModuleSummary struct {
	Funcs []FuncSummary
}

// Summarize runs the reaching-configuration flow analysis over every
// function of m.
func Summarize(m *ir.Module) *ModuleSummary {
	out := &ModuleSummary{}
	for _, f := range m.Funcs() {
		name, _ := f.StringAttrValue("sym_name")
		p := newFlowProblem()
		st := newFlowState()
		body := f.Region(0).Block()
		for i, arg := range body.Args() {
			st.env[arg] = Sym(fmt.Sprintf("arg%d", i))
		}
		Forward[*flowState](p, body, st)
		fs := FuncSummary{Name: name, Bounds: boundsBlock(body)}
		ir.Walk(f, func(o *ir.Op) {
			if rec, ok := p.launches[o]; ok {
				fs.Launches = append(fs.Launches, LaunchInfo{Accel: p.launchAccel[o], Fields: rec})
			}
		})
		out.Funcs = append(out.Funcs, fs)
	}
	return out
}

// flowState is the lattice element of the flow summary: abstract SSA
// environment plus per-accelerator abstract staging registers.
type flowState struct {
	env     map[*ir.Value]AbsVal
	staging map[string]FieldState
}

func newFlowState() *flowState {
	return &flowState{env: map[*ir.Value]AbsVal{}, staging: map[string]FieldState{}}
}

func (s *flowState) resolve(v *ir.Value) AbsVal {
	if av, ok := s.env[v]; ok {
		return av
	}
	return Top()
}

// flowProblem is the ForwardProblem of the flow summary. Site-stable
// symbols (per-op ids for allocs, loads, loop induction variables) keep the
// abstract state identical across solver iterations, so loop fixpoints are
// detected instead of timing out.
type flowProblem struct {
	launches    map[*ir.Op]FieldState
	launchAccel map[*ir.Op]string
	siteIDs     map[*ir.Op]int
}

func newFlowProblem() *flowProblem {
	return &flowProblem{
		launches:    map[*ir.Op]FieldState{},
		launchAccel: map[*ir.Op]string{},
		siteIDs:     map[*ir.Op]int{},
	}
}

func (p *flowProblem) site(op *ir.Op) int {
	if id, ok := p.siteIDs[op]; ok {
		return id
	}
	id := len(p.siteIDs)
	p.siteIDs[op] = id
	return id
}

func (p *flowProblem) Clone(s *flowState) *flowState {
	out := newFlowState()
	for v, av := range s.env {
		out.env[v] = av
	}
	for accel, st := range s.staging {
		out.staging[accel] = st.clone()
	}
	return out
}

func (p *flowProblem) Join(a, b *flowState) *flowState {
	out := p.Clone(a)
	for v, bv := range b.env {
		if av, ok := out.env[v]; ok {
			out.env[v] = av.Join(bv)
		} else {
			out.env[v] = bv
		}
	}
	for accel, bst := range b.staging {
		if ast, ok := out.staging[accel]; ok {
			// FieldState joins treat absent fields as the reset value, which
			// is exactly the staging content of a path that never wrote them.
			out.staging[accel] = ast.join(bst)
		} else {
			out.staging[accel] = FieldState{}.join(bst)
		}
	}
	for accel, ast := range a.staging {
		if _, ok := b.staging[accel]; !ok {
			out.staging[accel] = ast.join(FieldState{})
		}
	}
	return out
}

func (p *flowProblem) Equal(a, b *flowState) bool {
	if len(a.env) != len(b.env) || len(a.staging) != len(b.staging) {
		return false
	}
	for v, av := range a.env {
		bv, ok := b.env[v]
		if !ok || !av.Equal(bv) {
			return false
		}
	}
	for accel, ast := range a.staging {
		bst, ok := b.staging[accel]
		if !ok || len(ast) != len(bst) {
			return false
		}
		for f, av := range ast {
			bv, ok := bst[f]
			if !ok || !av.Equal(bv) {
				return false
			}
		}
	}
	return true
}

func (p *flowProblem) Transfer(op *ir.Op, s *flowState) *flowState {
	switch op.Name() {
	case arith.OpConstant:
		c, _ := op.IntAttrValue("value")
		s.env[op.Result(0)] = Const(c)

	case arith.OpAddI, arith.OpSubI, arith.OpMulI, arith.OpDivUI, arith.OpRemUI,
		arith.OpAndI, arith.OpOrI, arith.OpXOrI, arith.OpShLI, arith.OpShRUI:
		s.env[op.Result(0)] = evalBinary(op.Name(), s.resolve(op.Operand(0)), s.resolve(op.Operand(1)), op.Result(0).Type())

	case arith.OpCmpI:
		pred, _ := op.StringAttrValue("predicate")
		s.env[op.Result(0)] = evalCmp(pred, s.resolve(op.Operand(0)), s.resolve(op.Operand(1)))

	case arith.OpSelect:
		s.env[op.Result(0)] = evalSelect(s.resolve(op.Operand(0)), s.resolve(op.Operand(1)), s.resolve(op.Operand(2)))

	case arith.OpIndexCast:
		s.env[op.Result(0)] = s.resolve(op.Operand(0))

	case memref.OpExtractPointer:
		s.env[op.Result(0)] = wrap1("ptr", s.resolve(op.Operand(0)))

	case memref.OpAlloc:
		s.env[op.Result(0)] = Sym(fmt.Sprintf("alloc@%d", p.site(op)))

	case memref.OpDim:
		s.env[op.Result(0)] = wrap1("dim", s.resolve(op.Operand(0)))

	case memref.OpLoad:
		// Site-stable symbol: "the value loaded here". Imprecise across
		// iterations, but the summary only joins staging into launch records.
		s.env[op.Result(0)] = Sym(fmt.Sprintf("load@%d", p.site(op)))

	case memref.OpStore:
		// No tracked effect.

	case accfg.OpSetup:
		applySetup(op, s.staging, s.resolve)

	case accfg.OpLaunch:
		l, _ := accfg.AsLaunch(op)
		st, ok := s.staging[l.Accelerator()]
		if !ok {
			st = FieldState{}
		}
		if prev, seen := p.launches[op]; seen {
			p.launches[op] = prev.join(st)
		} else {
			p.launches[op] = st.clone()
		}
		p.launchAccel[op] = l.Accelerator()

	case accfg.OpAwait, scf.OpYield, fnc.OpReturn:
		// Synchronization / terminators: nothing to track.

	default:
		if op.NumRegions() > 0 || accfg.EffectsOf(op) == ir.EffectsAll {
			// Unmodeled op: degrade everything it may have clobbered.
			havocStagingSubtree(op, s.staging)
			for accel, st := range s.staging {
				for f := range st {
					s.staging[accel][f] = Top()
				}
			}
		}
		for _, r := range op.Results() {
			s.env[r] = Top()
		}
	}
	return s
}

func (p *flowProblem) EnterLoop(loop *ir.Op, s *flowState) *flowState {
	body := loop.Region(0).Block()
	s.env[body.Arg(0)] = Sym(fmt.Sprintf("iv@%d", p.site(loop)))
	yield := body.Last()
	for i := 0; i < loop.NumOperands()-3; i++ {
		v := s.resolve(loop.Operand(3 + i))
		if yv, ok := s.env[yield.Operand(i)]; ok {
			v = v.Join(yv)
		}
		s.env[body.Arg(1+i)] = v
	}
	return s
}

func (p *flowProblem) ExitLoop(loop *ir.Op, s *flowState) *flowState {
	yield := loop.Region(0).Block().Last()
	for i, r := range loop.Results() {
		// Join with the init value: the loop may run zero times.
		s.env[r] = s.resolve(loop.Operand(3 + i)).Join(s.resolve(yield.Operand(i)))
	}
	return s
}

func (p *flowProblem) ExitIf(ifOp *ir.Op, thenState, elseState *flowState) *flowState {
	out := p.Join(thenState, elseState)
	thenYield := ifOp.Region(0).Block().Last()
	elseYield := ifOp.Region(1).Block().Last()
	for i, r := range ifOp.Results() {
		out.env[r] = thenState.resolve(thenYield.Operand(i)).Join(elseState.resolve(elseYield.Operand(i)))
	}
	return out
}

// applySetup writes a setup's fields into the abstract staging registers,
// with the same group-atomic mate degradation as the path interpreter: a
// previously-written packed mate the setup does not carry becomes ⊤, a
// never-written mate stays at the reset value the lowering packs for it.
//
// The mates come from the port registered under the accelerator's name
// (accel.PortFor). On a bit-packed interface one write rewrites a whole
// register pair, so a setup touching any member of a group rewrites every
// member; the lowering re-materializes the mates from its own static
// knowledge — knowledge this analysis must not assume, hence ⊤ (the
// group-atomic join of DESIGN.md §9). A port with one field per write, and
// an accelerator nobody registered (hand-written test modules), is
// field-granular.
func applySetup(op *ir.Op, staging map[string]FieldState, resolve func(*ir.Value) AbsVal) {
	s, _ := accfg.AsSetup(op)
	name := s.Accelerator()
	st, ok := staging[name]
	if !ok {
		st = FieldState{}
		staging[name] = st
	}
	// Degrade first, write second: a mate the setup carries itself gets its
	// own value back.
	fields := s.Fields()
	port := accel.PortFor(name)
	for _, f := range fields {
		for _, mate := range port.Mates(f.Name) {
			if _, prev := st[mate]; prev {
				st[mate] = Top()
			}
		}
	}
	for _, f := range fields {
		st[f.Name] = resolve(f.Value)
	}
}

// havocStagingSubtree degrades every staging field a subtree might write
// (including packed group mates) to ⊤.
func havocStagingSubtree(root *ir.Op, staging map[string]FieldState) {
	ir.Walk(root, func(o *ir.Op) {
		s, ok := accfg.AsSetup(o)
		if !ok {
			return
		}
		name := s.Accelerator()
		st, ok := staging[name]
		if !ok {
			st = FieldState{}
			staging[name] = st
		}
		port := accel.PortFor(name)
		for _, field := range s.FieldNames() {
			st[field] = Top()
			for _, mate := range port.Mates(field) {
				st[mate] = Top()
			}
		}
	})
}
