// Package analytic is the simulation-free prediction tier (DESIGN.md
// §10): it estimates experiment Results — cycles, configuration-write
// cycles, overlap savings — for any (target × workload × pipeline × size)
// cell in microseconds, from the target's peak plus per-(workload,
// pipeline) overhead curves fitted against the real co-simulator on a
// seeded training grid. FLASH-style multi-fidelity flows
// (core.Runner.Screen / RunTopK, cwserve sweep fidelities) query this tier
// for the full grid and pay for simulation only on the predicted winners.
// Attach is the one way a binary gets a predictor: it fits, refuses a fit
// outside the held-out error band, and installs it.
//
// The fit basis is structural, not polynomial-in-n: every counter the
// simulator reports is (to first order) an affine combination of the
// cell's launch count, per-launch reduction length, tile geometry and
// total MAC count, all of which are closed-form functions of the
// workload shape and the target's documented tiling rules
// (workload.Tiling via Target.MatmulTiling). That makes the tier robust
// to the launch-count discontinuities square polynomial fits cannot see
// (e.g. gemmini's tile edge dropping from 64 to 32 as divisibility
// changes). A fitted model therefore needs the target registry at
// prediction time — it stores coefficients, not the tiling rules.
package analytic

import (
	"fmt"
	"math"

	"configwall/internal/core"
	"configwall/internal/workload"
)

// numFeatures is the length of the structural feature vector: see
// features().
const numFeatures = 6

// metric indexes the fitted counters of a Curve. Cycles is deliberately
// absent: it is predicted structurally from these fits plus a log-space
// residual (see Curve.Residual), not fitted directly.
type metric int

const (
	accelBusy metric = iota
	accelOps
	calcCycles
	configBytes
	configCycles
	configInstrs
	hostInstrs
	launches
	stallCycles
	syncCycles
	numMetrics
)

// counters reads every fitted counter of a simulated result, indexed by
// metric.
func counters(res core.Result) [numMetrics]float64 {
	return [numMetrics]float64{
		accelBusy:    float64(res.AccelBusyCycles),
		accelOps:     float64(res.AccelOps),
		calcCycles:   float64(res.CalcCycles),
		configBytes:  float64(res.ConfigBytes),
		configCycles: float64(res.ConfigCycles),
		configInstrs: float64(res.ConfigInstrs),
		hostInstrs:   float64(res.HostInstrs),
		launches:     float64(res.Launches),
		stallCycles:  float64(res.StallCycles),
		syncCycles:   float64(res.SyncCycles),
	}
}

// features computes the structural feature vector of one cell from the
// workload shape and the target's closed-form tiling — no IR is built,
// nothing is simulated. The basis is
//
//	[1, L, L·K, L·(TM+TN)/2, L·TM·TN, 2·M·K·N]
//
// where L is the launch count, TM×TN the output tile, K the per-launch
// reduction length and 2·M·K·N the total MAC ops: constant overheads,
// per-launch costs (config writes, syncs, launch setup), per-launch
// costs linear or bilinear in the tile edges (mvin/mvout rows), and pure
// compute time respectively. Simulated per-cell costs are affine in this
// basis, so the fits interpolate *and* track launch-count
// discontinuities exactly.
func features(tgt core.Target, wn string, n int) ([numFeatures]float64, error) {
	var row [numFeatures]float64
	shape, ok := workload.ShapeByName(wn)
	if !ok {
		return row, fmt.Errorf("unknown workload shape %q", wn)
	}
	mDim, kDim, nDim := shape.Dims(n)
	if tgt.MatmulTiling == nil {
		return row, fmt.Errorf("target %q has no closed-form tiling", tgt.Name)
	}
	til, err := tgt.MatmulTiling(mDim, kDim, nDim)
	if err != nil {
		return row, err
	}
	launches := float64(til.Launches)
	tileM, tileN := float64(til.TileM), float64(til.TileN)
	ops := 2 * float64(mDim) * float64(kDim) * float64(nDim)
	return [numFeatures]float64{
		1,
		launches,
		launches * float64(kDim),
		launches * (tileM + tileN) / 2,
		launches * tileM * tileN,
		ops,
	}, nil
}

// Curve holds the fitted terms of one (target, workload, pipeline) cell
// family.
type Curve struct {
	// Scale normalizes sizes for the residual: it evaluates in
	// t = log(n/Scale). Set to the largest training size.
	Scale float64
	// Metrics holds, per counter, its weighted linear fit coefficients
	// over the structural feature basis (features()).
	Metrics [numMetrics][numFeatures]float64
	// Residual is the log-space quadratic correction applied to the
	// structural cycle estimate: cycles = structural · exp(q(log(n/Scale))).
	// It absorbs what the structural terms cannot see — second-order
	// stall/overlap interleaving and pipeline-specific warmup effects.
	Residual [3]float64
}

// metric evaluates one fitted counter on a feature row, clamped
// non-negative.
func (c *Curve) metric(m metric, row *[numFeatures]float64) float64 {
	v := evalLinear(c.Metrics[m][:], row[:])
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// family names the cells one Curve covers.
type family struct {
	target, workload string
	pipeline         core.Pipeline
}

// Model is a calibrated analytical predictor. It satisfies
// core.Predictor; a zero Model predicts nothing. Models are immutable
// after calibration and safe for concurrent use.
type Model struct {
	curves map[family]*Curve
}

// Predict estimates the result of one experiment cell without simulating.
// The returned Result is marked Analytic; its counters are model
// estimates whose cycle error is bounded by DefaultBand on held-out cells
// inside the training size range (extrapolation beyond it is
// screening-grade only — see DESIGN.md §10).
func (m *Model) Predict(e core.Experiment) (core.Result, error) {
	if e.N < 1 {
		return core.Result{}, fmt.Errorf("analytic: %s: non-positive size", e)
	}
	c := m.curves[family{e.Target, e.Workload, e.Pipeline}]
	if c == nil {
		return core.Result{}, fmt.Errorf("analytic: %s: no calibrated curve", e)
	}
	tgt, err := core.LookupTarget(e.Target)
	if err != nil {
		return core.Result{}, fmt.Errorf("analytic: %s: %w", e, err)
	}
	row, err := features(tgt, e.Workload, e.N)
	if err != nil {
		return core.Result{}, fmt.Errorf("analytic: %s: %w", e, err)
	}
	peak := tgt.PeakOps
	if peak <= 0 {
		return core.Result{}, fmt.Errorf("analytic: %s: non-positive peak", e)
	}

	ops := c.metric(accelOps, &row)
	calc := c.metric(calcCycles, &row)
	cfgCycles := c.metric(configCycles, &row)
	syncCycles := c.metric(syncCycles, &row)
	stall := c.metric(stallCycles, &row)

	// Structural estimate: the simulator's exact end-to-end decomposition
	// Cycles = T_set + T_calc + T_sync + T_stall, each term fitted on the
	// structural basis. The multiplicative residual absorbs whatever
	// second-order effects the affine terms miss.
	structural := cfgCycles + calc + syncCycles + stall
	cycles := structural
	if structural > 0 && c.Scale > 0 {
		cycles = structural * math.Exp(evalQuadratic(c.Residual, math.Log(float64(e.N)/c.Scale)))
	}
	// The accelerator cannot beat its own peak: never predict below the
	// pure compute bound, and never below one cycle.
	if lower := ops / peak; cycles < lower {
		cycles = lower
	}
	if cycles < 1 {
		cycles = 1
	}

	res := core.Result{
		Target:   e.Target,
		Workload: e.Workload,
		Pipeline: e.Pipeline,
		N:        e.N,
		PeakOps:  peak,
		Analytic: true,
	}
	res.Cycles = toCount(cycles)
	res.HostCycles = toCount(cfgCycles + calc + syncCycles)
	res.StallCycles = toCount(stall)
	res.SyncCycles = toCount(syncCycles)
	res.AccelOps = toCount(ops)
	res.AccelBusyCycles = toCount(c.metric(accelBusy, &row))
	res.CalcCycles = toCount(calc)
	res.ConfigCycles = toCount(cfgCycles)
	res.ConfigBytes = toCount(c.metric(configBytes, &row))
	res.ConfigInstrs = toCount(c.metric(configInstrs, &row))
	res.HostInstrs = toCount(c.metric(hostInstrs, &row))
	res.Launches = toCount(c.metric(launches, &row))
	return res, nil
}

// toCount rounds a non-negative model estimate to a counter value.
func toCount(v float64) uint64 {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	return uint64(v + 0.5)
}
