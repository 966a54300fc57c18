package analysis

import (
	"fmt"
	"sort"
	"strings"

	"configwall/internal/dialects/accfg"
	"configwall/internal/ir"
)

// Finding is one provable base/optimized divergence: a matched pair of
// program paths whose observable event traces differ in a way no runtime
// input can reconcile.
type Finding struct {
	Func   string
	Path   string // branch-decision signature ("" = the only path)
	Detail string
}

func (f Finding) String() string {
	if f.Path == "" {
		return fmt.Sprintf("%s: %s", f.Func, f.Detail)
	}
	return fmt.Sprintf("%s [%s]: %s", f.Func, f.Path, f.Detail)
}

// Verdict is the outcome of a static module comparison. Rejected verdicts
// are proofs of divergence; everything else is an accept, with Inconclusive
// recording where precision was lost (an empty Inconclusive means the
// equivalence was fully proved).
type Verdict struct {
	Findings     []Finding
	Inconclusive []string
	PathsBase    int
	PathsOpt     int
}

// Rejected reports whether the comparison proved a divergence.
func (v Verdict) Rejected() bool { return len(v.Findings) > 0 }

// Proved reports whether equivalence was established with no precision
// loss: every path matched and every compared value was decided.
func (v Verdict) Proved() bool { return !v.Rejected() && len(v.Inconclusive) == 0 }

func (v Verdict) String() string {
	switch {
	case v.Rejected():
		parts := make([]string, 0, len(v.Findings))
		for _, f := range v.Findings {
			parts = append(parts, f.String())
		}
		return "reject: " + strings.Join(parts, "; ")
	case len(v.Inconclusive) > 0:
		return "accept (inconclusive: " + strings.Join(dedupStrings(v.Inconclusive), "; ") + ")"
	}
	return "accept (proved)"
}

func dedupStrings(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// CompareModules statically checks that opt preserves base's observable
// config-state behavior: for every function and every matched pair of
// abstract execution paths, the launch events (with the staging
// configuration each commits) and host memory events must be provably
// equal. See CompareSummaries for the matching and proof rules.
func CompareModules(base, opt *ir.Module) Verdict {
	return CompareSummaries(Explore(base), Explore(opt))
}

// CompareSummaries compares two explored summaries. Proof rules:
//
//   - paths pair up by branch-decision signature (conditions are canonical
//     symbolic expressions, so the same runtime decision carries the same
//     key in both modules); signature sets that do not line up make the
//     comparison inconclusive, never a reject;
//   - a matched pair must have the same event sequence (kinds, order,
//     count) — launches additionally match on accelerator and field-wise
//     staging content, stores on address and value, loads on address;
//   - a value mismatch rejects only when provable (two distinct constants,
//     with unwritten fields reading as the hardware reset value); symbolic
//     or unknown mismatches are recorded as inconclusive.
func CompareSummaries(base, opt *Summary) Verdict {
	var v Verdict
	for _, name := range base.order {
		bf := base.funcs[name]
		of, ok := opt.funcs[name]
		if !ok {
			v.Inconclusive = append(v.Inconclusive, fmt.Sprintf("%s: function missing from optimized module", name))
			continue
		}
		compareFunc(&v, bf, of)
	}
	return v
}

func compareFunc(v *Verdict, base, opt *funcPaths) {
	v.PathsBase += len(base.paths)
	v.PathsOpt += len(opt.paths)
	if len(base.inconclusive) > 0 || len(opt.inconclusive) > 0 {
		for _, r := range append(append([]string{}, base.inconclusive...), opt.inconclusive...) {
			v.Inconclusive = append(v.Inconclusive, base.name+": "+r)
		}
		return
	}
	bySig := func(paths []*path) (map[string]*path, []string) {
		m := map[string]*path{}
		var sigs []string
		for _, p := range paths {
			sig := p.signature()
			m[sig] = p
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		return m, sigs
	}
	bm, bsigs := bySig(base.paths)
	om, osigs := bySig(opt.paths)
	if strings.Join(bsigs, "|") != strings.Join(osigs, "|") {
		v.Inconclusive = append(v.Inconclusive,
			fmt.Sprintf("%s: path structure differs (base %d paths, optimized %d)", base.name, len(bsigs), len(osigs)))
		return
	}
	for _, sig := range bsigs {
		comparePath(v, base.name, sig, bm[sig], om[sig])
	}
}

func comparePath(v *Verdict, fn, sig string, base, opt *path) {
	reject := func(format string, args ...any) {
		v.Findings = append(v.Findings, Finding{Func: fn, Path: sig, Detail: fmt.Sprintf(format, args...)})
	}
	imprecise := func(format string, args ...any) {
		v.Inconclusive = append(v.Inconclusive, fmt.Sprintf("%s: %s", fn, fmt.Sprintf(format, args...)))
	}
	if len(base.events) != len(opt.events) {
		reject("event trace length differs: base %d events, optimized %d", len(base.events), len(opt.events))
		return
	}
	for i := range base.events {
		be, oe := base.events[i], opt.events[i]
		if be.kind != oe.kind {
			reject("event %d reordered: base %s, optimized %s", i, be, oe)
			return
		}
		switch be.kind {
		case evLaunch:
			if be.accel != oe.accel {
				reject("launch %d targets different accelerator: base %s, optimized %s", i, be.accel, oe.accel)
				return
			}
			// Both field states are sorted: merge them to visit the union
			// of their names in order, each once, an unwritten field
			// reading as the reset value.
			bf, of := be.fields, oe.fields
			for len(bf) > 0 || len(of) > 0 {
				var n string
				bv, ov := Const(0), Const(0)
				switch {
				case len(of) == 0 || (len(bf) > 0 && bf[0].name < of[0].name):
					n, bv, bf = bf[0].name, bf[0].val, bf[1:]
				case len(bf) == 0 || of[0].name < bf[0].name:
					n, ov, of = of[0].name, of[0].val, of[1:]
				default:
					n, bv, ov, bf, of = bf[0].name, bf[0].val, of[0].val, bf[1:], of[1:]
				}
				if bv.ProvablyDifferent(ov) {
					reject("launch %d (%s) observes field %s = %s, base program configured %s", i, be.accel, n, ov, bv)
					return
				}
				if !bv.ProvablyEqual(ov) {
					imprecise("launch %d (%s) field %s undecided: base %s, optimized %s", i, be.accel, n, bv, ov)
				}
			}
		case evStore:
			if be.addr.ProvablyDifferent(oe.addr) || be.val.ProvablyDifferent(oe.val) {
				reject("store %d differs: base %s, optimized %s", i, be, oe)
				return
			}
			if !be.addr.ProvablyEqual(oe.addr) || !be.val.ProvablyEqual(oe.val) {
				imprecise("store %d undecided: base %s, optimized %s", i, be, oe)
			}
		case evLoad:
			if be.addr.ProvablyDifferent(oe.addr) {
				reject("load %d differs: base %s, optimized %s", i, be, oe)
				return
			}
			if !be.addr.ProvablyEqual(oe.addr) {
				imprecise("load %d undecided: base %s, optimized %s", i, be, oe)
			}
		}
	}
}

// RejectError is the error PassCheck returns on a proved divergence, so
// callers (the pass manager's CheckEach hook, difftest) can distinguish a
// static soundness rejection from an ordinary pipeline failure.
type RejectError struct{ Verdict Verdict }

func (e *RejectError) Error() string { return e.Verdict.String() }

// PassCheck is the ir.PassManager CheckEach hook: it statically verifies
// that one pass preserved observable config-state behavior. Lowering
// passes legitimately translate accfg ops away and are skipped, as is
// anything downstream of them (no launches left to compare).
func PassCheck(pass string, before, after *ir.Module) error {
	if strings.HasPrefix(pass, "lower-") {
		return nil
	}
	if ir.CountOpsNamed(after, accfg.OpLaunch) == 0 && ir.CountOpsNamed(before, accfg.OpLaunch) == 0 {
		return nil
	}
	if v := CompareModules(before, after); v.Rejected() {
		return &RejectError{Verdict: v}
	}
	return nil
}
