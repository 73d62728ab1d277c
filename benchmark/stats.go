package main

import (
	"math"
	"sort"
)

// minBeyond is the ten-beyond rule: a percentile is reported only where at
// least this many samples lie strictly beyond it, so one slow sample cannot
// move it (choosing-metrics §1).
const minBeyond = 10

// tailLadder are the percentiles a tail metric may resolve to, lowest first.
var tailLadder = []float64{0.50, 0.75, 0.90, 0.95}

// percentile returns the nearest-rank q-quantile of an ascending slice:
// the smallest sample with at least a share q of the samples at or below
// it. It returns 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// rank is the zero-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// tailQuantile picks the highest percentile of the ladder that still has
// minBeyond samples beyond it; with too few samples for any of them it
// falls back to the median, which is always reported.
func tailQuantile(n int) float64 {
	q := tailLadder[0]
	for _, c := range tailLadder[1:] {
		if beyond(n, c) >= minBeyond {
			q = c
		}
	}
	return q
}

// summary is what the report prints beside every timed metric: the sample
// count, the extremes and the quartiles.
type summary struct {
	N                     int
	Min, Q1, Med, Q3, Max float64
}

// summarize sorts a copy of xs and reads its summary.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sortedCopy(xs)
	return summary{
		N:   len(s),
		Min: s[0],
		Q1:  percentile(s, 0.25),
		Med: percentile(s, 0.50),
		Q3:  percentile(s, 0.75),
		Max: s[len(s)-1],
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median of xs (0 when empty).
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 0.50)
}

// sum adds xs in index order.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
