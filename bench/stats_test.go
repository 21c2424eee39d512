package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the functions must sort
	}
	return xs
}

func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{seq(10), 2.75, 5.5, 8.25},
		// Python: statistics.quantiles(range(1, 10), n=4) == [2.5, 5.0, 7.5]
		{seq(9), 2.5, 5, 7.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
	if got := iqrShare(seq(10)); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("iqrShare = %v", got)
	}
	if got := rangeShare([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("rangeShare = %v, want 0.2", got)
	}
}

func TestTailRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		n   int
		p   float64
		ok  bool
		val float64
	}{
		{39, 0.75, false, 0},
		{40, 0.75, true, 30.75},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990.99},
	} {
		got, err := tail(seq(tc.n), tc.p, minBeyondTail)
		if (err == nil) != tc.ok {
			t.Errorf("tail(n=%d, p=%g): err = %v, want ok = %v", tc.n, tc.p, err, tc.ok)
			continue
		}
		if tc.ok && math.Abs(got-tc.val) > 1e-9 {
			t.Errorf("tail(n=%d, p=%g) = %v, want %v", tc.n, tc.p, got, tc.val)
		}
	}
	if _, err := tail(seq(3), 0.75, 0); err != nil {
		t.Errorf("with no minimum beyond, any tail is reported: %v", err)
	}
	// A run's op floor is exactly what its workload's tail needs.
	for _, w := range workloads {
		n := w.minOps()
		if _, err := tail(seq(n), w.tailP, minBeyondTail); err != nil {
			t.Errorf("%s: %d ops: %v", w.name, n, err)
		}
		if _, err := tail(seq(n-1), w.tailP, minBeyondTail); err == nil {
			t.Errorf("%s: %d ops suffice, yet the floor is %d", w.name, n-1, n)
		}
	}
}
