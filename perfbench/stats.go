package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile for it to mean anything.
const minBeyond = 10

// rank returns the nearest-rank percentile q (0 < q <= 100) of sorted.
func rank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond reports how many samples lie beyond the nearest-rank percentile q.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q/100*float64(n)))
}

// tail returns the highest whole percentile at or below want that has at
// least minBeyond samples beyond it, with its value. It refuses when even
// the median lacks them.
func tail(samples []float64, want float64) (value, pct float64, err error) {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for q := math.Floor(want); q >= 50; q-- {
		if beyond(len(sorted), q) >= minBeyond {
			return rank(sorted, q), q, nil
		}
	}
	return 0, 0, fmt.Errorf("%d samples leave fewer than %d beyond any percentile from p50 to p%g", len(samples), minBeyond, want)
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// geomean is the geometric mean of positive values.
func geomean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(values)))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
