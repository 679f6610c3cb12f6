package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail quoted from fewer points is one outlier, not a percentile.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples by nearest
// rank.  ok is false when fewer than minBeyond samples lie beyond it, so
// a p99 needs at least 1,000 samples.
func percentile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := sortedCopy(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// tail returns the highest of p99.9, p99, p90 and p50 that has at least
// minBeyond samples beyond it, with its label.
func tail(samples []float64) (label string, v float64, ok bool) {
	for _, t := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}, {"p50", 0.50}} {
		if v, ok := percentile(samples, t.q); ok {
			return t.label, v, true
		}
	}
	return "", 0, false
}

// quartiles returns the first quartile, median and third quartile of
// vals, the quartiles computed exactly as Python's
// statistics.quantiles(vals, n=4) does (the "exclusive" method), so a
// spread reads the same here as in any script that checks it.  A single
// value is its own quartiles.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := sortedCopy(vals)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), median(s), cut(3)
}

// median of vals (the mean of the middle two for an even count).
func median(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile range as a share of the median.
func spread(vals []float64) float64 {
	q1, med, q3 := quartiles(vals)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}
