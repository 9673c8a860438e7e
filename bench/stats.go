package main

import (
	"math"
	"sort"
)

// tailQ is the tail percentile every workload reports. It is the highest
// round percentile that leaves at least minBeyond samples above it in a
// chunk of the smallest chunk size any workload uses (100 frames).
const (
	tailQ     = 0.90
	minBeyond = 10
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs: the smallest
// value with at least q*len(xs) samples at or below it.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	return s[n-1-samplesBeyond(n, q)]
}

// samplesBeyond is how many of n samples rank strictly above the
// nearest-rank q-quantile. A percentile is reportable when this is at
// least minBeyond.
func samplesBeyond(n int, q float64) int {
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return n - k
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), so the
// spreads printed here are the ones the acceptance driver computes.
// It needs at least two values; fewer return the single value thrice.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile range of xs as a share of its median —
// the noise figure printed beside every chunked metric and the one the
// self-check holds against each bound.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// chunkMedian reduces per-chunk values of one timing metric to the
// reported value (their median) and its spread. A noisy neighbour spoils
// a few chunks, not the median.
func chunkMedian(perChunk []float64) (value, iqrShare float64) {
	return median(perChunk), spread(perChunk)
}
