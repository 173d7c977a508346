package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// quantile is the q-quantile of xs (linear interpolation between order
// statistics, as internal/stats defines it); 0 for an empty or invalid
// sample, which the callers' failure counts already explain.
func quantile(xs []float64, q float64) float64 {
	s, err := stats.New(xs)
	if err != nil {
		return 0
	}
	return s.Quantile(q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// samplesBeyond is how many of n samples lie strictly above the
// position the q-quantile is read at: the count that says whether n
// can resolve that percentile at all.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// quartileSpread is the distance between the first and the third
// quartile of xs as a share of their median, the run-to-run spread the
// driver computes; the quartiles are those of Python's
// statistics.quantiles(xs, n=4). 0 for fewer than two values.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs((quartile(3) - quartile(1)) / median(s))
}
