package main

import (
	"math"
	"sort"
)

// Percentile levels in basis points (1/10000), highest first: the levels
// tailLevel picks from.
var tailLevels = []int{9999, 9990, 9900, 9500, 9000, 5000}

// rank returns the 1-based nearest rank of level bp among n samples:
// ceil(n*bp/10000).
func rank(n, bp int) int { return (n*bp + 9999) / 10000 }

// tailLevel returns the highest level in tailLevels with at least ten of n
// samples beyond it, or 0 when even the median has fewer.
func tailLevel(n int) int {
	for _, bp := range tailLevels {
		if n-rank(n, bp) >= 10 {
			return bp
		}
	}
	return 0
}

// quantile returns the nearest-rank level-bp value of sorted (ascending).
func quantile(sorted []float64, bp int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	r := rank(len(sorted), bp)
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// slope is the least-squares slope of ys over xs (0 with fewer than two
// distinct xs).
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 || n < 2 {
		return 0
	}
	return sxy / sxx
}
