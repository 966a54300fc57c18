package ir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Pass transforms a module. Passes are the unit of composition in the
// compilation pipelines (paper Figure 8).
type Pass interface {
	// Name returns the pass's pipeline name (e.g. "accfg-dedup").
	Name() string
	// Run applies the pass to the module.
	Run(m *Module) error
}

// PassFunc adapts a function to the Pass interface.
type PassFunc struct {
	PassName string
	Fn       func(m *Module) error
}

// Name returns the pass name.
func (p PassFunc) Name() string { return p.PassName }

// Run invokes the wrapped function.
func (p PassFunc) Run(m *Module) error { return p.Fn(m) }

// PassManager runs a sequence of passes, optionally verifying the IR between
// passes and recording per-pass statistics.
type PassManager struct {
	passes []Pass
	// VerifyEach enables IR verification after every pass (on by default in
	// NewPassManager).
	VerifyEach bool
	// CheckEach, when set, receives every pass name together with the
	// module state before and after that pass ran (the before module is a
	// private clone). It is the hook the static config-state checker
	// (internal/analysis.PassCheck) plugs into: a non-nil error aborts the
	// pipeline, attributed to the offending pass. Cloning only happens
	// when the hook is set, so plain pipelines pay nothing.
	CheckEach func(pass string, before, after *Module) error
	// Stats accumulates a human-readable log line per executed pass.
	Stats []string
	// Changed accumulates the names of the executed passes that changed
	// the module: those that called a mutator of the IR on it. A pass that
	// did not left the module exactly as it found it.
	Changed []string
}

// NewPassManager returns a PassManager with per-pass verification enabled.
func NewPassManager(passes ...Pass) *PassManager {
	return &PassManager{passes: passes, VerifyEach: true}
}

// Add appends passes to the pipeline.
func (pm *PassManager) Add(passes ...Pass) *PassManager {
	pm.passes = append(pm.passes, passes...)
	return pm
}

// Passes returns the pipeline's pass names in order.
func (pm *PassManager) Passes() []string {
	names := make([]string, len(pm.passes))
	for i, p := range pm.passes {
		names[i] = p.Name()
	}
	return names
}

// Len returns the number of passes in the pipeline.
func (pm *PassManager) Len() int { return len(pm.passes) }

// SharedPrefix returns how many leading passes two pipelines, given by
// their pass names, run as one: the longest common prefix of a and b, cut
// before the first pass named lower-*. Past a lowering each pipeline has
// target code of its own, so nothing after one is shared.
// SharedPrefix(a, a) is the number of passes before a's first lowering.
// Resuming one pipeline from another's module at a shared depth is running
// it only because, within one target's pipelines, an equal name at an equal
// position is the same pass.
func SharedPrefix(a, b []string) int {
	d := 0
	for d < len(a) && d < len(b) && a[d] == b[d] && !strings.HasPrefix(a[d], "lower-") {
		d++
	}
	return d
}

// Run executes the pipeline on m: the span of every pass.
func (pm *PassManager) Run(m *Module) error { return pm.RunSpan(m, 0, len(pm.passes)) }

// RunSpan executes passes [from, to) of the pipeline on m, appending to
// Stats and Changed. Running the spans [0, a), [a, b), ... up to Len() in
// order is running the pipeline, with a point between two spans where the
// caller can read the live module — what CheckEach offers only at the
// price of a clone before every pass. A caller resuming another run's
// module seeds Stats and Changed with that run's before its first span.
func (pm *PassManager) RunSpan(m *Module, from, to int) error {
	// One count per pass boundary: a pass's "after" is the next one's
	// "before" (verification and CheckEach do not change the module).
	before := CountOps(m)
	for _, p := range pm.passes[from:to] {
		var snapshot *Module
		if pm.CheckEach != nil {
			snapshot = m.Clone()
		}
		epoch := m.op.epoch
		if err := p.Run(m); err != nil {
			return fmt.Errorf("pass %s: %w", p.Name(), err)
		}
		if m.op.epoch != epoch {
			pm.Changed = append(pm.Changed, p.Name())
		}
		if pm.VerifyEach {
			if err := Verify(m); err != nil {
				return fmt.Errorf("verifier failed after pass %s: %w", p.Name(), err)
			}
		}
		if pm.CheckEach != nil {
			if err := pm.CheckEach(p.Name(), snapshot, m); err != nil {
				return fmt.Errorf("static check failed after pass %s: %w", p.Name(), err)
			}
		}
		after := CountOps(m)
		pm.Stats = append(pm.Stats, statLine(p.Name(), before, after))
		before = after
	}
	return nil
}

// statLine renders fmt.Sprintf("%-32s ops: %4d -> %4d", pass, before, after)
// without fmt. The line is part of every stored and served Result, so it
// must stay byte-identical to that format.
//
//cwlint:hotpath
func statLine(pass string, before, after int) string {
	var buf [64]byte
	b := append(buf[:0], pass...)
	for n := utf8.RuneCountInString(pass); n < 32; n++ {
		b = append(b, ' ')
	}
	b = append(b, " ops: "...)
	b = appendPadded(b, before)
	b = append(b, " -> "...)
	b = appendPadded(b, after)
	return string(b)
}

// appendPadded appends n in decimal, right-aligned to four columns (%4d).
func appendPadded(b []byte, n int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	for i := len(d); i < 4; i++ {
		b = append(b, ' ')
	}
	return append(b, d...)
}

// String renders the pipeline like "a,b,c".
func (pm *PassManager) String() string {
	return strings.Join(pm.Passes(), ",")
}

// CountOps counts all ops in the module (excluding builtin.module itself).
//
//cwlint:hotpath
func CountOps(m *Module) int { return countNested(m.op) }

// countNested counts the ops inside op's regions, at any depth.
//
//cwlint:hotpath
func countNested(op *Op) int {
	n := 0
	for _, r := range op.regions {
		for o := r.block.first; o != nil; o = o.next {
			if o.name != "builtin.module" {
				n++
			}
			n += countNested(o)
		}
	}
	return n
}

// CountOpsNamed counts ops with the given name in the module.
func CountOpsNamed(m *Module, name string) int {
	n := 0
	m.Walk(func(op *Op) {
		if op.Name() == name {
			n++
		}
	})
	return n
}
