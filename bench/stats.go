package main

import (
	"math"
	"slices"
)

// tailMin is how many samples must lie beyond a reported tail percentile,
// so a tail is never read off a handful of points: a p99 needs 1000
// samples, a p90 needs 100.
const tailMin = 10

// quantile returns the q-quantile of ascending samples by the nearest-rank
// rule (the smallest sample with at least a q share of samples at or below
// it). A tail quantile (q > 0.5) is refused unless tailMin samples lie
// beyond it.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := float64(len(sorted))
	if n == 0 || (q > 0.5 && n*(1-q) < tailMin-1e-9) {
		return 0, false
	}
	k := int(math.Ceil(q*n-1e-9)) - 1
	return sorted[max(k, 0)], true
}

// median returns the middle of xs (the mean of the middle two for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method of Python's statistics.quantiles(xs, n=4), so the spreads this
// command prints match ones computed from its JSON output that way. Fewer
// than two samples give the single value (or 0) for both.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a rate over an empty window).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
