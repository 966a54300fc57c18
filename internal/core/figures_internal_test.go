package core

import (
	"math"
	"testing"
)

// TestGeomeanGuards: the geometric mean must reject every input class that
// would poison the reported summary — non-positive values, NaN and ±Inf —
// not just the ones ordered comparisons happen to catch.
func TestGeomeanGuards(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"pair", []float64{2, 8}, 4},
		{"identity", []float64{1, 1, 1}, 1},
		{"zero poisons", []float64{2, 0, 8}, 0},
		{"negative poisons", []float64{2, -1, 8}, 0},
		{"NaN poisons", []float64{2, math.NaN(), 8}, 0},
		{"+Inf poisons", []float64{2, math.Inf(1), 8}, 0},
		{"-Inf poisons", []float64{2, math.Inf(-1), 8}, 0},
		{"NaN alone", []float64{math.NaN()}, 0},
		{"Inf alone", []float64{math.Inf(1)}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Geomean(tc.xs)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("Geomean(%v) = %v leaked a non-finite value", tc.xs, got)
			}
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Geomean(%v) = %v, want %v", tc.xs, got, tc.want)
			}
		})
	}
}

// TestSpeedupRatioGuards: figure speedups divide an optimized measurement
// by a baseline that can be 0 (or already non-finite); the ratio must
// report the 0 sentinel instead of NaN/Inf so geomeans and rendered tables
// stay finite.
func TestSpeedupRatioGuards(t *testing.T) {
	cases := []struct {
		name      string
		opt, base float64
		want      float64
	}{
		{"normal", 8, 2, 4},
		{"sub-unity", 1, 2, 0.5},
		{"zero baseline", 8, 0, 0},
		{"both zero", 0, 0, 0},
		{"NaN baseline", 8, math.NaN(), 0},
		{"+Inf baseline", 8, math.Inf(1), 0},
		{"-Inf baseline", 8, math.Inf(-1), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := speedupRatio(tc.opt, tc.base)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("speedupRatio(%v, %v) = %v leaked a non-finite value", tc.opt, tc.base, got)
			}
			if got != tc.want {
				t.Errorf("speedupRatio(%v, %v) = %v, want %v", tc.opt, tc.base, got, tc.want)
			}
		})
	}
}

// TestZeroBaselineRowsDoNotPoisonGeomean drives a degenerate figure row
// (zero baseline) end to end: its sentinel speedup must zero the geomean
// guardedly instead of rendering NaN.
func TestZeroBaselineRowsDoNotPoisonGeomean(t *testing.T) {
	for _, rows := range [][]PairedRow{
		{
			{N: 16, BasePerf: 2, OptPerf: 8, Speedup: speedupRatio(8, 2)},
			{N: 32, BasePerf: 0, OptPerf: 8, Speedup: speedupRatio(8, 0)},
		},
		{{N: 16, BasePerf: 0, OptPerf: 4, Speedup: speedupRatio(4, 0)}},
	} {
		if g := PairedGeomean(rows); math.IsNaN(g) || math.IsInf(g, 0) {
			t.Errorf("PairedGeomean(%+v) = %v, want finite sentinel", rows, g)
		}
	}
}
