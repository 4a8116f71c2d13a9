package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of an ascending slice by
// linear interpolation between the two nearest ranks; NaN when empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailQuantile returns the highest of p99, p95, p90 and p75 that still
// has at least ten samples beyond it (p50 when none has), with the
// percentile it chose, so a short run reports a tail it can support
// and says which.
func tailQuantile(s []float64) (value float64, pct float64) {
	for _, p := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(len(s))*(1-p) >= 10 {
			return quantile(s, p), p * 100
		}
	}
	return quantile(s, 0.5), 50
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
