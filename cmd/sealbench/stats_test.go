package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(data, n=4) on the same data.
	cases := []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{[]float64{2.5, 7.25}, 1.3125, 4.875, 8.4375},
		{[]float64{40, 10, 30, 20}, 12.5, 25, 37.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.data)
		if m := median(c.data); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("%v: got q1=%v median=%v q3=%v, want %v %v %v", c.data, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestInputsAreNotReordered(t *testing.T) {
	data := []float64{3, 1, 2}
	median(data)
	quartiles(data)
	tail(data)
	if data[0] != 3 || data[1] != 1 || data[2] != 2 {
		t.Errorf("statistics reordered their input: %v", data)
	}
}

func TestTailRank(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{100, 90}, // ten samples beyond rank 90
		{31, 21},
		{21, 11},
		{20, 10}, // n-10 meets the median rank
		{16, 8},  // the median rank, not 6
		{3, 2},
		{1, 1},
	} {
		if got := tailRank(c.n); got != c.want {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(50 - i) // 50..1
	}
	if got := tail(xs); got != 40 {
		t.Errorf("tail of 1..50 = %v, want 40 (ten samples beyond)", got)
	}
}

func TestVerdict(t *testing.T) {
	const bound = 0.10
	tight := func(cand float64, lower bool) string { return verdict(100, 98, 102, cand, lower, bound) }
	for _, c := range []struct {
		got, want string
	}{
		{tight(115, true), verdictWorse},
		{tight(85, true), verdictBetter},
		{tight(109, true), verdictWithin},
		{tight(91, true), verdictWithin},
		{tight(85, false), verdictWorse}, // higher is better
		{tight(115, false), verdictBetter},
		// A baseline spread of 40% cannot resolve a 10% bound.
		{verdict(100, 80, 120, 150, true, bound), verdictUnresolved},
		{verdict(0, 0, 0, 0, true, bound), verdictWithin},
		{verdict(0, 0, 0, 1, true, bound), verdictUnresolved},
	} {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}
