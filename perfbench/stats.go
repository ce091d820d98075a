package main

import (
	"math"
	"slices"
	"time"
)

// minTailSamples is the percentile rule: a percentile is reported only
// when at least this many samples lie beyond it.
const minTailSamples = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// method on a sorted copy; 0 for an empty set.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// supports reports whether n samples support the q-quantile under the
// percentile rule (at least minTailSamples beyond it).
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minTailSamples-1e-9
}

// tailQuantile returns the highest of the candidate quantiles that n
// samples support, or 0 when even the median is unsupported.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if supports(n, q) {
			return q
		}
	}
	return 0
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, 0 when b is 0 (a layer that did no work reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
