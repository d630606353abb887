package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: fewer, and the value is decided by one or two
// outliers and moves from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs. It refuses, with an error, when fewer than minBeyond samples lie
// beyond the percentile's rank, so a tail figure is never read off a
// sample too small to hold it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count). It is for repeated whole measurements, such as
// the wall time of each round, not for latency samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
