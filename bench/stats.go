package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method — the one Python's statistics.quantiles(xs, n=4)
// uses, so spreads computed here and by the driver agree. Fewer than two
// samples have no spread: all three are the sample itself (0 when empty).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 in 1-based ranks, clamped to the sample.
		pos := float64(k*(len(s)+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// median returns the middle value of xs (mean of the middle two when the
// count is even); 0 for an empty sample.
func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// percentile reads the p-th percentile (0 < p <= 1) from an ascending
// slice by nearest rank: the smallest value with at least p of the sample
// at or below it.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// tailBeyond is how many samples must lie beyond a reported percentile for
// it to be more than the luck of a few slow operations.
const tailBeyond = 10

// tailPercentile returns the highest of p99, p90 and p50 that leaves at
// least tailBeyond of n samples beyond it: p99 needs 1000 samples, p90
// needs 100. latency_p99_ms is reported at this percentile, so on a
// workload that pools fewer than 1000 operations it degrades to p90 rather
// than report the maximum under a percentile's name.
func tailPercentile(n int) float64 {
	switch {
	case n >= 100*tailBeyond:
		return 0.99
	case n >= 10*tailBeyond:
		return 0.90
	}
	return 0.50
}
