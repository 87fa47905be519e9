package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of the raw samples by
// linear interpolation between closest ranks — the same rule as numpy's
// default and Python's statistics.quantiles(method="inclusive"). It is
// computed from the samples themselves, never from histogram buckets, so a
// reported percentile can never exceed the reported max. It sorts xs in
// place. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[hi]-xs[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// maxOf returns the largest sample (0 for none).
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// summary is an exact-quantile digest of a sample set, with its count so
// every percentile is reported beside the number of samples behind it.
type summary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	return summary{N: len(xs), P50: quantile(xs, 0.5), P99: quantile(xs, 0.99), Max: maxOf(xs)}
}
