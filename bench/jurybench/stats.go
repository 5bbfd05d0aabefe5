package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for an empty slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The product is rounded before the ceiling so that float error in p/100
// cannot push an exact rank (p99 of 1000 samples is the 990th) one up.
func rank(p float64, n int) int {
	exact := p * float64(n) / 100
	r := int(math.Ceil(exact))
	if math.Abs(exact-math.Round(exact)) < 1e-9 {
		r = int(math.Round(exact))
	}
	return min(max(r, 1), n)
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 50}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten samples beyond it among n samples, or 0 when even the median
// has fewer. A tail with fewer samples beyond it is one or two outliers,
// not a property of the system.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n > 0 && n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles returns the first quartile, median and third quartile of
// values, computed like Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), so spreads match what other tools report for the
// same runs. A single value is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	// The exclusive method: cut point i sits at 1-based position
	// i·(n+1)/4, interpolated between its neighbours; like Python, the
	// neighbour index is clamped to [1, n-1] and the weight is not, so
	// small samples extrapolate.
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median is the middle quartile.
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// mean returns the arithmetic mean, 0 for no values.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
