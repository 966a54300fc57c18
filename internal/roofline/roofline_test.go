package roofline_test

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"configwall/internal/roofline"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestProcessorRooflineEq1(t *testing.T) {
	// Memory-bound region: P = BW * I.
	if got := roofline.Processor(512, 16, 4); got != 64 {
		t.Errorf("Processor(512,16,4) = %v, want 64", got)
	}
	// Compute-bound region: P = peak.
	if got := roofline.Processor(512, 16, 1024); got != 512 {
		t.Errorf("Processor(512,16,1024) = %v, want 512", got)
	}
	// Exactly at the ridge.
	if got := roofline.Processor(512, 16, 32); got != 512 {
		t.Errorf("Processor at ridge = %v, want 512", got)
	}
}

func TestConcurrentRooflineEq2(t *testing.T) {
	if got := roofline.Concurrent(512, 1.77, 100); !approx(got, 177, 0.5) {
		t.Errorf("Concurrent = %v, want ~177", got)
	}
	if got := roofline.Concurrent(512, 1.77, 1e6); got != 512 {
		t.Errorf("Concurrent saturates at peak, got %v", got)
	}
}

func TestSequentialRooflineEq3PaperNumbers(t *testing.T) {
	// Paper §4.6: BW = 16/9 B/cy, I_OC = 204.8 ops/B -> ~41.5% of 512.
	bw := 16.0 / 9.0
	got := roofline.Sequential(512, bw, 204.8) / 512
	if !approx(got, 0.4156, 0.002) {
		t.Errorf("Eq.3 utilization = %.4f, want ~0.4156 (paper 41.49%%)", got)
	}
	// With effective bandwidth 0.913 -> ~26.7%.
	gotEff := roofline.Sequential(512, 0.913, 204.8) / 512
	if !approx(gotEff, 0.2674, 0.002) {
		t.Errorf("Eq.3 effective utilization = %.4f, want ~0.267 (paper 26.78%%)", gotEff)
	}
}

func TestEffectiveConfigBWEq4(t *testing.T) {
	// Paper §4.6: 2560 bytes over 935 instructions x 3 cycles = ~0.913.
	got := roofline.EffectiveConfigBW(2560, 775*3, 160*3)
	if !approx(got, 0.9126, 0.001) {
		t.Errorf("EffectiveConfigBW = %v, want ~0.913", got)
	}
	if !math.IsInf(roofline.EffectiveConfigBW(100, 0, 0), 1) {
		t.Error("zero time must give infinite bandwidth")
	}
}

func TestCombinedEq5(t *testing.T) {
	// Config term limits.
	if got := roofline.Combined(512, 100, 100, 1, 10); got != 10 {
		t.Errorf("Combined = %v, want 10 (config bound)", got)
	}
	// Memory term limits.
	if got := roofline.Combined(512, 2, 10, 100, 1000); got != 20 {
		t.Errorf("Combined = %v, want 20 (memory bound)", got)
	}
	// Peak limits.
	if got := roofline.Combined(512, 100, 100, 100, 100); got != 512 {
		t.Errorf("Combined = %v, want 512 (compute bound)", got)
	}
}

func TestKneeAndClassify(t *testing.T) {
	if got := roofline.Knee(512, 2); got != 256 {
		t.Errorf("Knee = %v, want 256", got)
	}
	if roofline.Classify(512, 2, 100) != roofline.ConfigBound {
		t.Error("left of knee must be config bound")
	}
	if roofline.Classify(512, 2, 1000) != roofline.ComputeBound {
		t.Error("right of knee must be compute bound")
	}
	for _, b := range []roofline.Bound{roofline.ComputeBound, roofline.ConfigBound} {
		if b.String() == "" {
			t.Error("Bound.String empty")
		}
	}
}

// TestSequentialProperties checks the paper's §4.3 analytical claims with
// property-based testing:
//   - sequential < concurrent everywhere (config cycles are unavoidable),
//   - sequential approaches concurrent asymptotically,
//   - the largest gap is at the knee point, where sequential = peak/2.
func TestSequentialProperties(t *testing.T) {
	prop := func(rawPeak, rawBW, rawIOC uint16) bool {
		peak := float64(rawPeak%1000) + 1
		bw := float64(rawBW%100)/10 + 0.1
		ioc := float64(rawIOC%10000) + 0.5
		seq := roofline.Sequential(peak, bw, ioc)
		conc := roofline.Concurrent(peak, bw, ioc)
		if seq >= conc {
			return false
		}
		// At the knee, sequential is exactly half of peak.
		knee := roofline.Knee(peak, bw)
		atKnee := roofline.Sequential(peak, bw, knee)
		return approx(atKnee, peak/2, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMonotonicityProperty: attainable performance never decreases with
// higher intensity or bandwidth.
func TestMonotonicityProperty(t *testing.T) {
	prop := func(rawIOC1, rawIOC2 uint16) bool {
		a := float64(rawIOC1%5000) + 1
		b := float64(rawIOC2%5000) + 1
		lo, hi := math.Min(a, b), math.Max(a, b)
		return roofline.Sequential(512, 1.5, lo) <= roofline.Sequential(512, 1.5, hi)+1e-9 &&
			roofline.Concurrent(512, 1.5, lo) <= roofline.Concurrent(512, 1.5, hi)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestModelHelpers(t *testing.T) {
	m := roofline.Model{Name: "m", PeakOps: 512, BWConfig: 2, BWMemory: 32}
	// Sequential configuration approaches peak only asymptotically (§4.3).
	if got := m.Attainable(1e9); got >= 512 || got < 511.9 {
		t.Errorf("sequential model at huge I_OC = %v, want just below 512", got)
	}
	mc := m
	mc.ConcurrentConfig = true
	if mc.Attainable(256) != 512 {
		t.Error("concurrent model at knee must hit peak")
	}
	if m.Attainable(256) >= mc.Attainable(256) {
		t.Error("sequential must trail concurrent at the knee")
	}
	if u := m.Utilization(1e9); !approx(u, 1, 1e-5) {
		t.Errorf("utilization at huge I_OC = %v, want ~1", u)
	}
	if !strings.Contains(m.String(), "knee") {
		t.Error("String should mention the knee")
	}
}

func TestCurvesAndSurface(t *testing.T) {
	m := roofline.Model{Name: "m", PeakOps: 512, BWConfig: 2, BWMemory: 32}
	seq := m.CurveSequential(1, 1024, 16)
	conc := m.CurveConcurrent(1, 1024, 16)
	if len(seq.Points) != 16 || len(conc.Points) != 16 {
		t.Fatalf("curve lengths = %d/%d, want 16", len(seq.Points), len(conc.Points))
	}
	for i := range seq.Points {
		if seq.Points[i].Perf >= conc.Points[i].Perf {
			t.Errorf("sequential above concurrent at I_OC %.2f", seq.Points[i].IOC)
		}
	}
	surf := m.Surface(1, 64, 1, 64, 5)
	if len(surf) != 25 {
		t.Fatalf("surface cells = %d, want 25", len(surf))
	}
	for _, cell := range surf {
		if cell[2] > m.PeakOps {
			t.Error("surface exceeds peak")
		}
	}
}

func TestAsciiPlotRenders(t *testing.T) {
	m := roofline.Model{Name: "m", PeakOps: 512, BWConfig: 2}
	p := roofline.NewAsciiPlot(40, 10)
	p.AddCurve(m.CurveSequential(1, 16384, 40))
	p.AddCurve(m.CurveConcurrent(1, 16384, 40))
	p.AddPoints(roofline.Series{Name: "meas", Points: []roofline.Point{{IOC: 100, Perf: 100}}})
	out := p.Render()
	if !strings.Contains(out, "legend") {
		t.Error("plot missing legend")
	}
	if !strings.Contains(out, "1") {
		t.Error("plot missing measurement marker")
	}
	if len(strings.Split(out, "\n")) < 12 {
		t.Error("plot too short")
	}
}
