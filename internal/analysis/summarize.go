package analysis

import (
	"fmt"

	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/memref"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

// The flow summary is the fixpoint counterpart of the path enumerator in
// exec.go: instead of one trace per feasible path it computes a single
// join-over-all-paths abstract state (flow.block) and records the staging
// configuration each launch site can observe. It never gives up (loops with
// unknown bounds just join to ⊤), which makes it the right engine for the
// human-facing `cwopt -analyze` report.

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
		p := &flow{
			launches:    map[*ir.Op]FieldState{},
			launchAccel: map[*ir.Op]string{},
			siteIDs:     map[*ir.Op]int{},
		}
		body := f.Region(0).Block()
		p.block(body, entryState(f, new(FieldStates)))
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

// flow is one function's flow summary in the making. Site-stable symbols
// (per-op ids for allocs, loads, loop induction variables) keep the
// abstract state identical from one evaluation of a loop body to the next,
// so loop fixpoints are detected instead of timing out.
type flow struct {
	launches    map[*ir.Op]FieldState
	launchAccel map[*ir.Op]string
	siteIDs     map[*ir.Op]int
}

func (p *flow) site(op *ir.Op) int {
	if id, ok := p.siteIDs[op]; ok {
		return id
	}
	id := len(p.siteIDs)
	p.siteIDs[op] = id
	return id
}

// maxFixpointIters bounds the evaluations of one loop body. The abstract
// domains here have small finite height (⊥ → value → ⊤ per tracked cell),
// so fixpoints arrive in two or three rounds; the cap is a defensive
// backstop, and hitting it still yields a sound (post-join)
// over-approximation because join only ever moves up the lattice.
const maxFixpointIters = 8

// block steps s, which it owns, over one structured block and returns the
// state at its end: ops in sequence, scf.if by evaluating both arms from
// the same entry state and joining, scf.for by iterating the body to a
// join-fixpoint (the region-tree equivalent of a worklist solver on the
// loop's back edge, which also covers the zero-trip case since the entry
// state stays in the join).
func (p *flow) block(b *ir.Block, s absState) absState {
	for op := b.First(); op != nil; op = op.Next() {
		if loop, ok := scf.AsFor(op); ok {
			cur := p.enterLoop(loop, s.clone())
			for i := 0; i < maxFixpointIters; i++ {
				joined := cur.join(p.block(loop.Body(), cur.clone()))
				if joined.equal(cur) {
					cur = joined
					break
				}
				cur = p.enterLoop(loop, joined)
			}
			s = cur
			for i := 0; i < loop.NumIterArgs(); i++ {
				// Join with the init value: the loop may run zero times.
				s.env[loop.Result(i)] = s.resolve(loop.InitArg(i)).Join(s.resolve(loop.Yielded(i)))
			}
		} else if branch, ok := scf.AsIf(op); ok {
			thenState := p.block(branch.Then(), s.clone())
			elseState := p.block(branch.Else(), s.clone())
			s = thenState.join(elseState)
			for i := 0; i < op.NumResults(); i++ {
				s.env[op.Result(i)] = thenState.resolve(branch.ThenYield().Operand(i)).Join(elseState.resolve(branch.ElseYield().Operand(i)))
			}
		} else {
			p.transfer(op, s)
		}
	}
	return s
}

// enterLoop seeds the loop-carried abstractions (induction variable,
// iteration arguments) before each abstract evaluation of the body.
func (p *flow) enterLoop(loop scf.For, s absState) absState {
	s.env[loop.InductionVar()] = Sym(fmt.Sprintf("iv@%d", p.site(loop.Op)))
	for i := 0; i < loop.NumIterArgs(); i++ {
		v := s.resolve(loop.InitArg(i))
		if yv, ok := s.env[loop.Yielded(i)]; ok {
			v = v.Join(yv)
		}
		s.env[loop.IterArg(i)] = v
	}
	return s
}

// transfer steps one regionless op: the shared scalar and setup arms
// (absState.eval), then what only a join over all paths has — allocations
// and loads named by site, launch records joined per site, unmodeled ops
// degraded rather than given up on.
func (p *flow) transfer(op *ir.Op, s absState) {
	if s.eval(op) {
		return
	}
	switch op.Name() {
	case memref.OpAlloc:
		s.env[op.Result(0)] = Sym(fmt.Sprintf("alloc@%d", p.site(op)))

	case memref.OpLoad:
		// Site-stable symbol: "the value loaded here". Imprecise across
		// iterations, but the summary only joins staging into launch records.
		s.env[op.Result(0)] = Sym(fmt.Sprintf("load@%d", p.site(op)))

	case accfg.OpLaunch:
		l, _ := accfg.AsLaunch(op)
		st := s.staging[l.Accelerator()]
		if prev, seen := p.launches[op]; seen {
			p.launches[op] = prev.join(st)
		} else {
			p.launches[op] = st
		}
		p.launchAccel[op] = l.Accelerator()

	case memref.OpStore, accfg.OpAwait, scf.OpYield, fnc.OpReturn:
		// No tracked effect.

	default:
		if op.NumRegions() > 0 || accfg.EffectsOf(op) == ir.EffectsAll {
			// Unmodeled op: degrade everything it may have clobbered.
			s.havoc(op)
			for accelerator, st := range s.staging {
				top := make(FieldState, len(st))
				for i, f := range st {
					top[i] = field[AbsVal]{f.name, Top()}
				}
				s.staging[accelerator] = top
			}
		}
		s.top(op)
	}
}
