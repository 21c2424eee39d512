package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyondTail is the number of samples that must lie strictly above a
// tail percentile before the benchmark reports it: a p99 over 200
// samples is two observations, not a distribution.
const minBeyondTail = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the middle two for even
// lengths), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the p-quantile of xs by the "exclusive" method
// (position (n+1)p, linearly interpolated) of Python's
// statistics.quantiles, so the quartiles this benchmark prints are the
// ones Python computes from the same samples. Positions outside the
// sample clamp to its ends, where Python would extrapolate.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := float64(n+1) * p
	switch {
	case h <= 1:
		return s[0]
	case h >= float64(n):
		return s[n-1]
	}
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	return s[lo-1] + frac*(s[lo]-s[lo-1])
}

// quartiles returns the first quartile, the median and the third
// quartile of xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), median(xs), quantile(xs, 0.75)
}

// tail returns the p-quantile of xs, refusing (with an error) when
// fewer than minBeyond samples lie strictly above it: such a tail is a
// handful of outliers, and the benchmark would rather fail than gate
// on it.
func tail(xs []float64, p float64, minBeyond int) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("p%g of no samples", p*100)
	}
	q := quantile(xs, p)
	beyond := 0
	for _, x := range xs {
		if x > q {
			beyond++
		}
	}
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, len(xs), beyond, minBeyond)
	}
	return q, nil
}

// iqrShare is the distance between the first and third quartile as a
// share of the median: the run-to-run spread the benchmark's bounds are
// set against.
func iqrShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// rangeShare is the largest pairwise distance within xs as a share of
// the median.
func rangeShare(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}
