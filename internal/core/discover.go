package core

// Size discovery: which sweep sizes a (target, workload) pair can actually
// build. The benchmark builds its workload universes from here, and the
// tests pin it against the built-in tiling rules, so neither hardcodes a
// target's divisibility rule.

import "configwall/internal/workload"

// SupportedSizes filters candidates down to the sizes workload w can build
// for target t, in input order. Feasibility is decided the cheap way when
// possible — the target's closed-form MatmulTiling on a known matmul-family
// shape, no IR built — and by attempting the real build otherwise, so
// externally registered workloads and targets participate without any
// registry change.
func SupportedSizes(t Target, w Workload, candidates []int) []int {
	var out []int
	for _, n := range candidates {
		if n < 1 {
			continue
		}
		if sizeFeasible(t, w, n) {
			out = append(out, n)
		}
	}
	return out
}

// sizeFeasible reports whether w builds for t at size n. A Build that
// panics at a probed size does not support it: one broken externally
// registered workload must not take discovery down for every other pair.
func sizeFeasible(t Target, w Workload, n int) (ok bool) {
	if shape, ok := workload.ShapeByName(w.Name); ok && t.MatmulTiling != nil {
		mDim, kDim, nDim := shape.Dims(n)
		_, err := t.MatmulTiling(mDim, kDim, nDim)
		return err == nil
	}
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	_, err := w.Build(t, n)
	return err == nil
}
