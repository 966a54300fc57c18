package core

// Search-space discovery: which sweep sizes a (target, workload) pair can
// actually build. Configuration-search clients (cmd/cwtune) discover the
// (target x workload x pipeline x size) space from the serving daemon
// instead of hardcoding tiling rules, and the daemon answers from here.

import "configwall/internal/workload"

// DefaultSizeGrid is the probe grid for size-feasibility discovery: a
// coarse sweep from the smallest tile any built-in target accepts up to
// the serving daemon's default size cap, dense at the small end where
// tiling divisibility rules differ between targets. Servers filter it by
// their own -max-n cap before probing.
var DefaultSizeGrid = []int{8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024}

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
