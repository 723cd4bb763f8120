package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the values at or below it.
// xs is sorted in place. An empty slice yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the nearest-rank 50th percentile; xs is sorted in place.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailCount is how many of n samples lie strictly beyond the nearest-rank
// p-th percentile: the support a tail figure rests on.
func tailCount(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}
