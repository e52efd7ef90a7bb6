package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie above the reported tail
// percentile: fewer would make the tail one or two outliers.
const tailMinBeyond = 10

// median returns the median of xs (0 for an empty slice). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest sample that still has at least
// minBeyond samples above it, together with its percentile rank (the share
// of samples at or below it, in percent). ok is false when there are not
// enough samples for any such percentile.
func tailPercentile(xs []float64, minBeyond int) (value, pct float64, ok bool) {
	s := sortedCopy(xs)
	k := len(s) - 1 - minBeyond
	if k < 0 {
		return 0, 0, false
	}
	return s[k], 100 * float64(k+1) / float64(len(s)), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func allFinite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
