// Package roofline implements the paper's performance models (§4): the
// classical processor roofline (Eq. 1), the novel configuration roofline for
// concurrently (Eq. 2) and sequentially (Eq. 3) configured accelerators, the
// effective configuration bandwidth correction (Eq. 4), and the combined
// "roofsurface" (Eq. 5).
package roofline

import (
	"fmt"
	"math"
)

// Processor returns the attainable performance of the classical processor
// roofline (Eq. 1): min(peak, bwMemory * iOperational), in ops/cycle.
func Processor(peak, bwMemory, iOperational float64) float64 {
	return math.Min(peak, bwMemory*iOperational)
}

// Concurrent returns the attainable performance under the configuration
// roofline for a concurrently-configured accelerator (Eq. 2):
// min(peak, bwConfig * iOC).
func Concurrent(peak, bwConfig, iOC float64) float64 {
	return math.Min(peak, bwConfig*iOC)
}

// Sequential returns the attainable performance for a sequentially
// configured accelerator (Eq. 3): the harmonic composition
// 1 / (1/peak + 1/(bwConfig * iOC)). It asymptotically approaches the
// concurrent roofline but never reaches it — configuration cycles are
// unavoidable without overlap. The harmonic mean is undefined for
// non-positive terms (1/0 is +Inf, 1/-x flips the sign and can even turn
// the composition negative), so any non-positive peak or config term
// yields 0, mirroring the Geomean/speedupRatio hardening: a degenerate
// cell must not leak NaN/Inf into figures.
func Sequential(peak, bwConfig, iOC float64) float64 {
	cfg := bwConfig * iOC
	if peak <= 0 || cfg <= 0 || math.IsNaN(peak) || math.IsNaN(cfg) {
		return 0
	}
	return 1 / (1/peak + 1/cfg)
}

// EffectiveConfigBW returns the effective configuration bandwidth (Eq. 4):
// configBytes / (tCalc + tSet), accounting for the host cycles spent
// *computing* configuration values (bit-packing, address arithmetic) on top
// of the cycles spent setting registers.
func EffectiveConfigBW(configBytes, tCalcCycles, tSetCycles float64) float64 {
	t := tCalcCycles + tSetCycles
	if t == 0 {
		return math.Inf(1)
	}
	return configBytes / t
}

// Combined returns the attainable performance of the combined roofsurface
// (Eq. 5): min(peak, bwMemory * iOperational, bwConfig * iOC).
func Combined(peak, bwMemory, iOperational, bwConfig, iOC float64) float64 {
	return math.Min(Processor(peak, bwMemory, iOperational), bwConfig*iOC)
}

// Knee returns the operation-to-configuration intensity of the roofline
// knee point: the I_OC at which configuration time equals compute time
// (peak / bwConfig). Workloads left of the knee are configuration bound.
// A non-positive bandwidth has no knee; report 0 rather than Inf/NaN.
func Knee(peak, bwConfig float64) float64 {
	if bwConfig <= 0 || peak <= 0 || math.IsNaN(bwConfig) || math.IsNaN(peak) {
		return 0
	}
	return peak / bwConfig
}

// Bound classifies which term of the roofline limits a workload.
type Bound int

// Bound kinds.
const (
	// ComputeBound: the peak-performance term limits.
	ComputeBound Bound = iota
	// ConfigBound: the configuration term limits (the configuration wall).
	ConfigBound
)

func (b Bound) String() string {
	if b == ConfigBound {
		return "configuration-bound"
	}
	return "compute-bound"
}

// Classify determines the binding term under the concurrent configuration
// roofline (Eq. 2).
func Classify(peak, bwConfig, iOC float64) Bound {
	if bwConfig*iOC < peak {
		return ConfigBound
	}
	return ComputeBound
}

// Model bundles an accelerator's roofline parameters.
type Model struct {
	// Name identifies the accelerator in reports.
	Name string
	// PeakOps is the peak performance in ops/cycle.
	PeakOps float64
	// BWConfig is the raw configuration bandwidth in bytes/cycle.
	BWConfig float64
	// BWMemory is the memory bandwidth in bytes/cycle (for the combined
	// model; zero disables the memory term).
	BWMemory float64
	// ConcurrentConfig marks concurrent-configuration hardware.
	ConcurrentConfig bool
}

// Attainable evaluates the applicable configuration roofline for a workload
// with the given operation-to-configuration intensity.
func (m Model) Attainable(iOC float64) float64 {
	if m.ConcurrentConfig {
		return Concurrent(m.PeakOps, m.BWConfig, iOC)
	}
	return Sequential(m.PeakOps, m.BWConfig, iOC)
}

// Utilization returns attainable performance as a fraction of peak, or 0
// when the model has no positive peak (division by zero would report a
// NaN utilization for an unconfigured model).
func (m Model) Utilization(iOC float64) float64 {
	if m.PeakOps <= 0 || math.IsNaN(m.PeakOps) {
		return 0
	}
	return m.Attainable(iOC) / m.PeakOps
}

// Knee returns the knee-point intensity of the model.
func (m Model) Knee() float64 { return Knee(m.PeakOps, m.BWConfig) }

// Point is one measurement or model evaluation on the roofline plot
// (Figure 12): a workload's intensity and its performance.
type Point struct {
	Label string
	IOC   float64
	Perf  float64
}

// Series is a named sequence of points (one roofline curve or one
// measurement group).
type Series struct {
	Name   string
	Points []Point
}

// CurveConcurrent samples the concurrent roofline over a log-spaced
// intensity range.
func (m Model) CurveConcurrent(iocMin, iocMax float64, n int) Series {
	return m.curve("concurrent", iocMin, iocMax, n, func(ioc float64) float64 {
		return Concurrent(m.PeakOps, m.BWConfig, ioc)
	})
}

// CurveSequential samples the sequential roofline over a log-spaced
// intensity range.
func (m Model) CurveSequential(iocMin, iocMax float64, n int) Series {
	return m.curve("sequential", iocMin, iocMax, n, func(ioc float64) float64 {
		return Sequential(m.PeakOps, m.BWConfig, ioc)
	})
}

func (m Model) curve(name string, iocMin, iocMax float64, n int, f func(float64) float64) Series {
	s := Series{Name: name}
	if n < 2 {
		n = 2
	}
	iocMin, iocMax, ok := clampLogRange(iocMin, iocMax)
	if !ok {
		return s
	}
	logMin, logMax := math.Log(iocMin), math.Log(iocMax)
	for i := 0; i < n; i++ {
		ioc := math.Exp(logMin + (logMax-logMin)*float64(i)/float64(n-1))
		s.Points = append(s.Points, Point{IOC: ioc, Perf: f(ioc)})
	}
	return s
}

// clampLogRange sanitizes a log-spaced sampling range: math.Log of a
// non-positive bound is NaN/-Inf and every sampled coordinate inherits it.
// A non-positive minimum is pulled up to six decades below the maximum; a
// range with no positive maximum is unusable and reports ok=false.
func clampLogRange(min, max float64) (float64, float64, bool) {
	if max <= 0 || math.IsNaN(max) || math.IsInf(max, 0) {
		return 0, 0, false
	}
	if min <= 0 || math.IsNaN(min) || min > max {
		min = max / 1e6
	}
	return min, max, true
}

// Surface samples the combined roofsurface (Figure 5) over a log-spaced
// grid, returning rows of (iOperational, iOC, attainable). Ranges are
// sanitized like curve sampling: a non-positive axis maximum yields an
// empty surface rather than NaN coordinates.
func (m Model) Surface(iOpMin, iOpMax, iocMin, iocMax float64, n int) [][3]float64 {
	var out [][3]float64
	iOpMin, iOpMax, okOp := clampLogRange(iOpMin, iOpMax)
	iocMin, iocMax, okOC := clampLogRange(iocMin, iocMax)
	if !okOp || !okOC || n < 2 {
		return out
	}
	for i := 0; i < n; i++ {
		iOp := math.Exp(math.Log(iOpMin) + (math.Log(iOpMax)-math.Log(iOpMin))*float64(i)/float64(n-1))
		for j := 0; j < n; j++ {
			ioc := math.Exp(math.Log(iocMin) + (math.Log(iocMax)-math.Log(iocMin))*float64(j)/float64(n-1))
			out = append(out, [3]float64{iOp, ioc, Combined(m.PeakOps, m.BWMemory, iOp, m.BWConfig, ioc)})
		}
	}
	return out
}

// String summarizes the model.
func (m Model) String() string {
	scheme := "sequential"
	if m.ConcurrentConfig {
		scheme = "concurrent"
	}
	return fmt.Sprintf("%s: peak %.0f ops/cycle, BW_config %.3f B/cycle (%s), knee at I_OC = %.1f ops/B",
		m.Name, m.PeakOps, m.BWConfig, scheme, m.Knee())
}
