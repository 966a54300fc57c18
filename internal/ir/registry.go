package ir

import (
	"fmt"
	"sort"
	"sync"
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
	// Fold attempts to simplify the op in place or compute a constant.
	// It returns a replacement value per result (all nil = no fold), or
	// inPlace=true when the op was updated without replacement.
	Fold func(*Op) (replacements []*Value, inPlace bool)
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

var (
	// registryMu is read-locked by every worker on every Lookup, and each
	// RLock writes its reader count. The padding keeps that write off the
	// cache lines of whatever the linker places next to it: in builds where
	// that was runtime.writeBarrier — read on every pointer store — two
	// workers ran cold small cells 17% slower (bench sweep_small, PR 13).
	registryMu struct {
		_ [64]byte
		sync.RWMutex
		_ [64]byte
	}
	registry = map[string]OpInfo{}
)

// Register adds an op kind to the global registry. Registering the same name
// twice panics — dialects own their prefixes.
func Register(info OpInfo) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("ir: duplicate registration of op %q", info.Name))
	}
	registry[info.Name] = info
}

// Lookup returns the OpInfo for name. Unregistered names return a zero
// OpInfo with ok=false; generic passes then treat the op conservatively
// (impure, unknown semantics).
func Lookup(name string) (OpInfo, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	info, ok := registry[name]
	return info, ok
}

// RegisteredOps returns all registered op names, sorted.
func RegisteredOps() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// IsPure reports whether the op has no side effects. The "volatile" unit
// attribute (used to model the paper's volatile-asm baseline) forces an op
// to be treated as impure regardless of its registered traits.
func IsPure(op *Op) bool {
	if op.HasAttr("volatile") {
		return false
	}
	info, ok := Lookup(op.Name())
	return ok && info.HasTrait(TraitPure)
}

// IsTerminator reports whether op is a registered block terminator.
func IsTerminator(op *Op) bool {
	info, ok := Lookup(op.Name())
	return ok && info.HasTrait(TraitTerminator)
}

// IsConstant reports whether op materializes a compile-time constant.
func IsConstant(op *Op) bool {
	info, ok := Lookup(op.Name())
	return ok && info.HasTrait(TraitConstant)
}
