package ir

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
)

// Trait is a structural property of an op kind used by generic passes.
type Trait int

const (
	// TraitPure marks ops with no side effects: they can be CSE'd, hoisted,
	// and dead-code eliminated.
	TraitPure Trait = iota
	// TraitTerminator marks block terminators (scf.yield, fnc.return).
	TraitTerminator
	// TraitConstant marks materialized constants (arith.constant).
	TraitConstant
	// TraitIsolated marks ops whose regions cannot reference values defined
	// outside (fnc.func, builtin.module).
	TraitIsolated
)

// OpInfo describes a registered operation kind.
type OpInfo struct {
	// Name is the dialect-qualified op name.
	Name string
	// Traits lists the op's structural properties.
	Traits []Trait
	// Verify checks op-specific invariants; nil means no extra checks.
	Verify func(*Op) error
	// Fold attempts to simplify a one-result op in place or compute a
	// constant. It returns the value that replaces the op's result (nil =
	// no fold), or inPlace=true when the op was updated without
	// replacement.
	Fold func(*Op) (replacement *Value, inPlace bool)
	// Summary is a one-line human description used by cwopt -help-ops.
	Summary string
}

// HasTrait reports whether the op kind carries the given trait.
func (i OpInfo) HasTrait(t Trait) bool {
	for _, tr := range i.Traits {
		if tr == t {
			return true
		}
	}
	return false
}

// The op-kind table is written a handful of times at start-up (the dialect
// packages' init functions, an embedder's main) and read on every op of
// every pass on every worker. It is therefore an immutable map published
// through one atomic pointer: Register copies it under registerMu and
// swaps the copy in; readers load the pointer and take no lock.
var (
	registerMu sync.Mutex
	opKinds    atomic.Pointer[map[string]*OpInfo]
)

// kinds returns the current snapshot of the table: a map no one writes,
// nil before the first Register.
//
//cwlint:hotpath
func kinds() map[string]*OpInfo {
	if p := opKinds.Load(); p != nil {
		return *p
	}
	return nil
}

// Register adds an op kind to the global registry. Registering the same name
// twice panics — dialects own their prefixes.
//
// Register before you build: NewOp resolves the op's kind once, when the op
// is constructed. An op built before its kind was registered stays
// unregistered for its whole life (impure, no folder, no verifier), however
// the registration is timed against later queries; ops built afterwards —
// clones of the earlier op included — see the kind.
func Register(info OpInfo) {
	registerMu.Lock()
	defer registerMu.Unlock()
	old := kinds()
	if _, dup := old[info.Name]; dup {
		panic(fmt.Sprintf("ir: duplicate registration of op %q", info.Name))
	}
	next := make(map[string]*OpInfo, len(old)+1)
	maps.Copy(next, old)
	next[info.Name] = &info
	opKinds.Store(&next)
}

// Lookup returns the OpInfo for name. Unregistered names return a zero
// OpInfo with ok=false; generic passes then treat the op conservatively
// (impure, unknown semantics). It is the by-name query for listings; code
// holding an *Op asks the op (IsPure, IsTerminator, IsConstant).
func Lookup(name string) (OpInfo, bool) {
	if k := kinds()[name]; k != nil {
		return *k, true
	}
	return OpInfo{}, false
}

// RegisteredOps returns all registered op names, sorted.
func RegisteredOps() []string {
	var names []string
	for n := range kinds() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// IsPure reports whether the op has no side effects. The "volatile" unit
// attribute (used to model the paper's volatile-asm baseline) forces an op
// to be treated as impure regardless of its registered traits.
//
//cwlint:hotpath
func IsPure(op *Op) bool {
	return op.kind != nil && op.kind.HasTrait(TraitPure) && !op.HasAttr("volatile")
}

// IsTerminator reports whether op is a registered block terminator.
//
//cwlint:hotpath
func IsTerminator(op *Op) bool {
	return op.kind != nil && op.kind.HasTrait(TraitTerminator)
}

// IsConstant reports whether op materializes a compile-time constant.
//
//cwlint:hotpath
func IsConstant(op *Op) bool {
	return op.kind != nil && op.kind.HasTrait(TraitConstant)
}
