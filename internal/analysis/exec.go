package analysis

import (
	"fmt"
	"sort"
	"strings"

	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/memref"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
)

// Exploration limits. Generated programs are tiny (constant loop bounds of
// at most a handful of iterations, a few branches); the caps exist so
// adversarial hand-written inputs degrade to an inconclusive accept instead
// of hanging the checker.
const (
	maxPaths      = 256
	maxTripUnroll = 1024
	maxFuel       = 200_000
)

// eventKind classifies one observable action of an abstract execution.
type eventKind uint8

const (
	evLaunch eventKind = iota
	evStore
	evLoad
)

func (k eventKind) String() string {
	switch k {
	case evLaunch:
		return "launch"
	case evStore:
		return "store"
	}
	return "load"
}

// event is one observable action: an accelerator launch with the staging
// configuration it commits, or a host memory access. Await has no
// observable effect of its own and is not recorded.
type event struct {
	kind   eventKind
	accel  string     // evLaunch
	fields FieldState // evLaunch: the staging the launch commits (shared, never changed)
	addr   AbsVal     // evStore/evLoad
	val    AbsVal     // evStore
}

func (e event) String() string {
	switch e.kind {
	case evLaunch:
		return fmt.Sprintf("launch %s [%s]", e.accel, e.fields)
	case evStore:
		return fmt.Sprintf("store %s <- %s", e.addr, e.val)
	}
	return fmt.Sprintf("load %s", e.addr)
}

// path is one fully resolved abstract execution: the branch decisions that
// select it and the observable events it performs.
type path struct {
	assigns map[string]bool
	events  []event
}

// signature renders the branch decisions canonically so base and optimized
// paths pair up: "cond1=T cond2=F", sorted by condition key.
func (p *path) signature() string {
	keys := make([]string, 0, len(p.assigns))
	for k := range p.assigns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(k)
		if p.assigns[k] {
			b.WriteString("=T")
		} else {
			b.WriteString("=F")
		}
	}
	return b.String()
}

// funcPaths is the exploration result for one function.
type funcPaths struct {
	name         string
	paths        []*path
	inconclusive []string // non-empty: exploration lost precision somewhere
}

// Summary holds the explored abstract executions of a module's functions,
// ready for comparison against another module's summary.
type Summary struct {
	funcs map[string]*funcPaths
	order []string // function names in module order
}

// control-flow sentinels for the interpreter.
type forkErr struct{ key string }

func (e forkErr) Error() string { return "fork on " + e.key }

type impreciseErr struct{ reason string }

func (e impreciseErr) Error() string { return e.reason }

// Explore abstractly interprets every function of m, enumerating one path
// per feasible combination of unresolved branch conditions (conditions are
// keyed by canonical symbolic expression, so the same runtime condition
// resolves identically everywhere it is consulted). Constant-bound loops
// are fully unrolled; anything the interpreter cannot bound or model makes
// that function's exploration inconclusive rather than wrong.
func Explore(m *ir.Module) *Summary {
	s := &Summary{funcs: map[string]*funcPaths{}}
	for _, f := range m.Funcs() {
		name, _ := f.StringAttrValue("sym_name")
		fp := exploreFunc(f)
		fp.name = name
		// Duplicate names would silently shadow; degrade honestly.
		if _, dup := s.funcs[name]; dup {
			fp.inconclusive = append(fp.inconclusive, "duplicate function name")
		}
		s.funcs[name] = fp
		s.order = append(s.order, name)
	}
	return s
}

// exploreFunc enumerates the paths of one function by repeatedly running
// the interpreter with a growing branch-decision script: a run that hits an
// undecided symbolic condition aborts and re-queues both decisions.
func exploreFunc(f *ir.Op) *funcPaths {
	fp := &funcPaths{}
	known := new(FieldStates)
	pending := []map[string]bool{{}}
	for len(pending) > 0 {
		if len(fp.paths)+len(pending) > maxPaths {
			fp.inconclusive = append(fp.inconclusive, fmt.Sprintf("more than %d paths", maxPaths))
			return fp
		}
		assigns := pending[0]
		pending = pending[1:]
		p, err := runOnce(f, known, assigns)
		switch e := err.(type) {
		case nil:
			fp.paths = append(fp.paths, p)
		case forkErr:
			t := cloneAssigns(assigns)
			t[e.key] = true
			fa := cloneAssigns(assigns)
			fa[e.key] = false
			pending = append(pending, t, fa)
		case impreciseErr:
			fp.inconclusive = append(fp.inconclusive, e.reason)
			return fp
		default:
			fp.inconclusive = append(fp.inconclusive, err.Error())
			return fp
		}
	}
	return fp
}

func cloneAssigns(a map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+1)
	for k, v := range a {
		out[k] = v
	}
	return out
}

// interp is the per-run interpreter state.
type interp struct {
	absState
	assigns map[string]bool
	events  []event
	loads   int
	allocs  int
	fuel    int
}

// runOnce deterministically interprets f under the given branch decisions.
func runOnce(f *ir.Op, known *FieldStates, assigns map[string]bool) (*path, error) {
	in := &interp{absState: entryState(f, known), assigns: assigns, fuel: maxFuel}
	if err := in.evalBlock(f.Region(0).Block()); err != nil {
		return nil, err
	}
	return &path{assigns: assigns, events: in.events}, nil
}

func (in *interp) evalBlock(b *ir.Block) error {
	for op := b.First(); op != nil; op = op.Next() {
		if in.fuel--; in.fuel <= 0 {
			return impreciseErr{reason: "interpretation budget exhausted"}
		}
		if err := in.evalOp(op); err != nil {
			return err
		}
	}
	return nil
}

// evalOp steps one op: the shared scalar and setup arms (absState.eval),
// then what only a single concrete path has — allocations and loads named
// by visit order, memory and launch events, loops unrolled, branches
// decided or forked.
func (in *interp) evalOp(op *ir.Op) error {
	if in.eval(op) {
		return nil
	}
	switch op.Name() {
	case memref.OpAlloc:
		in.env[op.Result(0)] = Sym(fmt.Sprintf("alloc%d", in.allocs))
		in.allocs++

	case memref.OpLoad:
		addr := in.addrKey(op, 0)
		in.events = append(in.events, event{kind: evLoad, addr: addr})
		in.env[op.Result(0)] = Sym(fmt.Sprintf("load%d", in.loads))
		in.loads++

	case memref.OpStore:
		addr := in.addrKey(op, 1)
		in.events = append(in.events, event{kind: evStore, addr: addr, val: in.resolve(op.Operand(0))})

	case accfg.OpLaunch:
		l, _ := accfg.AsLaunch(op)
		in.events = append(in.events, event{kind: evLaunch, accel: l.Accelerator(), fields: in.staging[l.Accelerator()]})

	case accfg.OpAwait:
		// Synchronization only: no observable effect of its own.

	case scf.OpFor:
		return in.evalFor(scf.For{Op: op})

	case scf.OpIf:
		return in.evalIf(scf.If{Op: op})

	case scf.OpYield, fnc.OpReturn:
		// Handled by the enclosing region evaluation.

	default:
		if op.NumRegions() > 0 {
			return impreciseErr{reason: fmt.Sprintf("unmodeled region op %s", op.Name())}
		}
		if accfg.EffectsOf(op) == ir.EffectsAll {
			// Could clobber accelerator state (or worse) in ways this
			// abstraction does not model.
			return impreciseErr{reason: fmt.Sprintf("unmodeled effectful op %s", op.Name())}
		}
		in.top(op)
	}
	return nil
}

// addrKey builds the canonical address key of a load/store: the buffer key
// plus every index key. Distinct canonical keys do not prove distinct
// addresses — the comparison layer only treats equal keys as meaningful.
func (in *interp) addrKey(op *ir.Op, bufIdx int) AbsVal {
	parts := make([]string, 0, op.NumOperands()-bufIdx)
	for i := bufIdx; i < op.NumOperands(); i++ {
		av := in.resolve(op.Operand(i))
		if av.IsTop() {
			return Top()
		}
		parts = append(parts, av.String())
	}
	return Sym("(at " + strings.Join(parts, " ") + ")")
}

// skip steps over a loop or branch the interpreter cannot follow: safe only
// when the subtree is free of observable events; its configuration writes
// and its results degrade to ⊤.
func (in *interp) skip(op *ir.Op, what string) error {
	if subtreeObservable(op) {
		return impreciseErr{reason: what + " contains observable ops"}
	}
	in.havoc(op)
	in.top(op)
	return nil
}

// evalFor unrolls a loop whose bounds and step resolve to constants in the
// abstract environment (which folds computed bounds scf's ConstantTripCount
// does not see), the induction variable a constant per iteration.
func (in *interp) evalFor(loop scf.For) error {
	lb, lbOK := in.resolve(loop.LowerBound()).ConstValue()
	ub, ubOK := in.resolve(loop.UpperBound()).ConstValue()
	step, stepOK := in.resolve(loop.Step()).ConstValue()
	trips, bounded := scf.TripCount(lb, ub, step)
	if !lbOK || !ubOK || !stepOK || !bounded {
		return in.skip(loop.Op, "loop with non-constant bounds")
	}
	iters := make([]AbsVal, loop.NumIterArgs())
	for i := range iters {
		iters[i] = in.resolve(loop.InitArg(i))
	}
	for k := int64(0); k < trips; k++ {
		if k >= maxTripUnroll {
			return impreciseErr{reason: fmt.Sprintf("loop trip count exceeds %d", maxTripUnroll)}
		}
		in.env[loop.InductionVar()] = Const(lb + k*step)
		for i, v := range iters {
			in.env[loop.IterArg(i)] = v
		}
		if err := in.evalBlock(loop.Body()); err != nil {
			return err
		}
		for i := range iters {
			iters[i] = in.resolve(loop.Yielded(i))
		}
	}
	for i, v := range iters {
		in.env[loop.Result(i)] = v
	}
	return nil
}

func (in *interp) evalIf(branch scf.If) error {
	cond := in.resolve(branch.Condition())
	taken, decided := false, false
	if c, ok := cond.ConstValue(); ok {
		taken, decided = c != 0, true
	} else if key, ok := cond.SymKey(); ok {
		if taken, decided = in.assigns[key]; !decided {
			return forkErr{key: key}
		}
	}
	if !decided {
		return in.skip(branch.Op, "branch on unmodeled condition")
	}
	blk, yield := branch.Then(), branch.ThenYield()
	if !taken {
		blk, yield = branch.Else(), branch.ElseYield()
	}
	if err := in.evalBlock(blk); err != nil {
		return err
	}
	if yield != nil {
		for i := 0; i < branch.Op.NumResults(); i++ {
			in.env[branch.Op.Result(i)] = in.resolve(yield.Operand(i))
		}
	}
	return nil
}

// subtreeObservable reports whether the subtree rooted at op contains any
// op whose execution is an observable event (launch or host memory access).
func subtreeObservable(root *ir.Op) bool {
	found := false
	ir.Walk(root, func(o *ir.Op) {
		switch o.Name() {
		case accfg.OpLaunch, memref.OpLoad, memref.OpStore:
			found = true
		}
	})
	return found
}

// --- abstract arithmetic -------------------------------------------------

// commutative arith ops whose operand keys are sorted for canonicalization.
var commutative = map[string]bool{
	arith.OpAddI: true, arith.OpMulI: true,
	arith.OpAndI: true, arith.OpOrI: true, arith.OpXOrI: true,
}

// evalBinary mirrors the arith constant folder (arith.Eval plus the
// algebraic identities of foldBinary) so that values canonicalize to the
// same key whether or not the canonicalize pass already folded them.
func evalBinary(name string, a, b AbsVal, t ir.Type) AbsVal {
	// Identities that hold regardless of the other operand — the same set
	// the greedy folder applies.
	if bc, ok := b.ConstValue(); ok {
		if bc == 0 {
			switch name {
			case arith.OpAddI, arith.OpSubI, arith.OpOrI, arith.OpXOrI, arith.OpShLI, arith.OpShRUI:
				return a
			case arith.OpMulI, arith.OpAndI:
				return Const(0)
			}
		}
		if bc == 1 && (name == arith.OpMulI || name == arith.OpDivUI) {
			return a
		}
	}
	if ac, ok := a.ConstValue(); ok && ac == 0 && name == arith.OpAddI {
		return b
	}
	ac, aOK := a.ConstValue()
	bc, bOK := b.ConstValue()
	if aOK && bOK {
		r, err := arith.Eval(name, ac, bc, t)
		if err != nil {
			return Top() // division by zero: runtime behavior unmodeled
		}
		return Const(r)
	}
	if a.IsTop() || b.IsTop() || a.IsBottom() || b.IsBottom() {
		return Top()
	}
	ka, kb := a.String(), b.String()
	if commutative[name] && kb < ka {
		ka, kb = kb, ka
	}
	short := strings.TrimPrefix(name, "arith.")
	return Sym("(" + short + " " + ka + " " + kb + ")")
}

// evalCmp mirrors arith.EvalCmp and resolves comparisons of provably equal
// operands; everything else stays symbolic so branches fork consistently.
func evalCmp(pred string, a, b AbsVal) AbsVal {
	ac, aOK := a.ConstValue()
	bc, bOK := b.ConstValue()
	if aOK && bOK {
		r, err := arith.EvalCmp(pred, ac, bc)
		if err != nil {
			return Top()
		}
		if r {
			return Const(1)
		}
		return Const(0)
	}
	if a.ProvablyEqual(b) {
		switch pred {
		case arith.PredEQ, arith.PredSLE, arith.PredSGE, arith.PredULE:
			return Const(1)
		case arith.PredNE, arith.PredSLT, arith.PredSGT, arith.PredULT:
			return Const(0)
		}
	}
	if a.IsTop() || b.IsTop() || a.IsBottom() || b.IsBottom() {
		return Top()
	}
	ka, kb := a.String(), b.String()
	if (pred == arith.PredEQ || pred == arith.PredNE) && kb < ka {
		ka, kb = kb, ka
	}
	return Sym("(cmpi " + pred + " " + ka + " " + kb + ")")
}

func evalSelect(c, t, e AbsVal) AbsVal {
	if cc, ok := c.ConstValue(); ok {
		if cc != 0 {
			return t
		}
		return e
	}
	if t.ProvablyEqual(e) {
		return t
	}
	if c.IsTop() || t.IsTop() || e.IsTop() || c.IsBottom() || t.IsBottom() || e.IsBottom() {
		return Top()
	}
	return Sym("(select " + c.String() + " " + t.String() + " " + e.String() + ")")
}

func wrap1(fn string, v AbsVal) AbsVal {
	if v.IsTop() || v.IsBottom() {
		return Top()
	}
	return Sym("(" + fn + " " + v.String() + ")")
}
