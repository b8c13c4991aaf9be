package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile of values: the
// smallest sample such that at least p percent of the samples are at
// or below it. It never interpolates, so every reported latency is one
// that some request actually saw. It returns 0 for no samples.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return sorted[nearestRank(len(sorted), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	// p·n first: p/100 is inexact (99.9/100·10000 rounds above 9990).
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailCandidates are the tail percentiles the benchmark may report,
// highest first.
var tailCandidates = []float64{99.9, 99, 90, 50}

// tailPercentile is the highest candidate percentile of n samples that
// has at least ten samples beyond it, so a reported tail is never one
// or two outliers. It returns 0 when even the median has fewer than
// ten samples above it.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-nearestRank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// median is the nearest-rank 50th percentile.
func median(values []float64) float64 { return percentile(values, 50) }

// sample is one timed operation of an open-loop or pass-based run.
type sample struct {
	ms float64 // latency from when the operation was due
	ok bool    // answered successfully
}

// sloFrac is the share of samples answered successfully within
// limitMs. A failed or refused operation counts as a miss, whatever
// its latency.
func sloFrac(samples []sample, limitMs float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	met := 0
	for _, s := range samples {
		if s.ok && s.ms <= limitMs {
			met++
		}
	}
	return float64(met) / float64(len(samples))
}
