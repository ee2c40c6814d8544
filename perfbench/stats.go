package main

import (
	"math"
	"sort"
)

// median returns the median of xs (NaN when empty). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailMinBeyond is how many samples must lie above a reported tail
// percentile for the percentile to be supported by the sample.
const tailMinBeyond = 10

// tail reports the highest percentile of xs that still has at least
// tailMinBeyond samples strictly beyond it, as (value, percentile in
// [0,100], ok). With n sorted samples, the sample at rank k (0-based)
// has n-1-k samples beyond it, so the highest supported rank is
// n-1-tailMinBeyond and its percentile is k/(n-1)·100. ok is false when
// fewer than tailMinBeyond+1 samples exist.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	k := n - 1 - tailMinBeyond
	if k < 0 {
		return math.NaN(), 0, false
	}
	s := sorted(xs)
	// Ties at s[k] must not count as "beyond": step down past equal
	// values above k so every counted sample is strictly larger.
	for k > 0 && s[k+1] == s[k] {
		k--
	}
	if s[k+1] == s[k] {
		return math.NaN(), 0, false
	}
	return s[k], float64(k) / float64(n-1) * 100, true
}
