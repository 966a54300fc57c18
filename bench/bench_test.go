package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestSmokeEmitsEveryMetric runs every workload, untraced and traced, on
// the smoke scale (one block per window) and holds the output to the
// contract: exactly the metrics BENCHMARK.json names for that mode, each
// finite, with its unit and a well-formed name, and no failed operation.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 1, seconds: 0, traced: traced, smoke: true, sc: smokeScale, outDir: t.TempDir()}
			res, _, err := run(cfg, w)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: traced run wrote no trace: %v", w.name, err)
				}
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d specified", w.name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", w.name, s.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, s.Name, m.Value)
				case m.Unit != s.Unit || m.Unit == "":
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, s.Name, m.Unit, s.Unit)
				case !nameRE.MatchString(s.Name):
					t.Errorf("metric name %q is malformed", s.Name)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, s.Name, m.Value)
				}
			}
			entries, err := os.ReadDir(cfg.outDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), "store-") {
					t.Errorf("%s traced=%v left temporary store %s behind", w.name, traced, e.Name())
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram: the committed BENCHMARK.json is what
// -spec prints, so the file and the output name the same metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -spec`; regenerate it")
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if seen[s.Name] {
			t.Errorf("metric %s named twice", s.Name)
		}
		seen[s.Name] = true
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

func TestQuartilesAndMedian(t *testing.T) {
	// The values Python's statistics.quantiles(xs, n=4) gives.
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 1.5 || med != 3 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v %v %v, want 1.5 3 4.5", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %v, want 0", m)
	}
	if m := median([]float64{7}); m != 7 {
		t.Errorf("median of one = %v, want 7", m)
	}
}

func TestPercentileAndTailRule(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.50: 50, 0.90: 90, 0.99: 99, 1: 100} {
		if got := percentile(asc, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	// p99 only once ten samples lie beyond it, then p90, then the median.
	for n, want := range map[int]float64{99: 0.50, 100: 0.90, 999: 0.90, 1000: 0.99, 50000: 0.99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		// Two children that overlap on [30,40): covered once.
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 60},
		// A grandchild is its parent's business, not the root's.
		{Name: "c", ID: 3, Parent: 2, Start: 35, End: 55},
		// A child that runs past its parent is clipped to it.
		{Name: "d", ID: 4, Parent: 0, Start: 90, End: 120},
		// A coalesced child: as long as all its calls together.
		{Name: "e", ID: 5, Parent: 1, Start: 12, End: 22, Count: 5},
	}
	total, self := spanTimes(spans)
	want := map[string][2]float64{
		"op": {100, 100 - 50 - 10}, // children cover [10,60) and [90,100)
		"a":  {30, 20},
		"b":  {30, 10},
		"c":  {20, 20},
		"d":  {30, 30},
		"e":  {10, 10},
	}
	for name, w := range want {
		if total[name][0] != w[0] || self[name][0] != w[1] {
			t.Errorf("span %s: total %v self %v, want %v %v", name, total[name][0], self[name][0], w[0], w[1])
		}
	}
}

// TestSeedOrdersNeverSelects: the same seed gives the same operation
// sequence, another seed gives another order of the same operations, and
// the universes do not take a seed at all.
func TestSeedOrdersNeverSelects(t *testing.T) {
	const n = 88
	a, again, b := shuffled(n, blockSeed(1, 3)), shuffled(n, blockSeed(1, 3)), shuffled(n, blockSeed(2, 3))
	if !reflect.DeepEqual(a, again) {
		t.Error("same seed, different order")
	}
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds, same order")
	}
	if reflect.DeepEqual(a, shuffled(n, blockSeed(1, 4))) {
		t.Error("two blocks of one run, same order")
	}
	sa, sb := append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(sa)
	sort.Ints(sb)
	if !reflect.DeepEqual(sa, sb) || sa[0] != 0 || sa[n-1] != n-1 {
		t.Error("a seed changed which operations run")
	}

	u1, err := universe(smokeScale.serveSizes, []string{"matmul"})
	if err != nil {
		t.Fatal(err)
	}
	u2, _ := universe(smokeScale.serveSizes, []string{"matmul"})
	if !reflect.DeepEqual(u1, u2) {
		t.Error("universe is not deterministic")
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(throughput float64, correct bool) set {
		s := set{Seed: 1, Seconds: 1, Workloads: map[string]setEntry{}}
		for _, w := range workloads {
			r := result{Correct: correct, Attempted: 10, Metrics: map[string]metricValue{}}
			for _, spec := range endToEnd {
				r.Metrics[spec.Name] = metricValue{Value: 100, Unit: spec.Unit}
			}
			r.Metrics["throughput_ops_s"] = metricValue{Value: throughput, Unit: "1/s"}
			s.Workloads[w.name] = setEntry{EndToEnd: r}
		}
		return s
	}
	dir := t.TempDir()
	save := func(name string, s set) string {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := save("base.json", mk(100, true))
	var out bytes.Buffer
	if err := compareSets(&out, base, save("near.json", mk(95, true))); err != nil {
		t.Errorf("5%% less throughput is inside the bound: %v\n%s", err, out.String())
	}
	if err := compareSets(&out, base, save("better.json", mk(150, true))); err != nil {
		t.Errorf("more throughput is not a regression: %v", err)
	}
	out.Reset()
	if err := compareSets(&out, base, save("far.json", mk(60, true))); err == nil || !strings.Contains(out.String(), "EXCEEDED") {
		t.Errorf("40%% less throughput must exceed the bound; err=%v\n%s", err, out.String())
	}
	if err := compareSets(&out, base, save("wrong.json", mk(100, false))); err == nil {
		t.Error("an incorrect run must fail the comparison")
	}
}
