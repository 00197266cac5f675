package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples when
// n is even. It is NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method Python's
// statistics.quantiles(data, n=4) uses by default ("exclusive"), so the
// figures here match Python's to the last digit. One sample is
// both quartiles; none gives NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tailRank is the 1-based rank of the tail sample among n: n−10, the
// highest rank that still has ten samples beyond it, but never below the
// median's rank (n+1)/2, which it meets at n = 20 and under.
func tailRank(n int) int {
	return max(n-10, (n+1)/2)
}

// tail is the sample at tailRank. It is NaN for no samples.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sortedCopy(xs)[tailRank(len(xs))-1]
}

// Verdicts of one metric compared between a baseline and a candidate.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// verdict compares a candidate median against a baseline's median and
// quartiles. The spread is the baseline's interquartile distance as a share
// of its median: when it is wider than the bound, a shift of one bound
// cannot be told from noise and the answer is unresolved. Otherwise a move
// by more than the bound, as a share of the baseline median, in the
// metric's good or bad direction is better or worse, and anything smaller
// is within bound.
func verdict(base, baseQ1, baseQ3, cand float64, lowerIsBetter bool, bound float64) string {
	if base == 0 {
		if cand == 0 {
			return verdictWithin
		}
		return verdictUnresolved
	}
	if (baseQ3-baseQ1)/math.Abs(base) > bound {
		return verdictUnresolved
	}
	worse := (cand - base) / math.Abs(base)
	if !lowerIsBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return verdictWorse
	case -worse > bound:
		return verdictBetter
	default:
		return verdictWithin
	}
}
