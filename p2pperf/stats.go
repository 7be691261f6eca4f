package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a reported percentile must leave
// beyond it: a p95 over fewer than 200 samples rests on fewer than ten
// observations and is not reported.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending sample, and how many samples lie strictly beyond it.
func percentile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// supported reports whether the q-quantile of n samples leaves at least
// minTail samples beyond it.
func supported(n int, q float64) bool {
	rank := int(math.Ceil(q * float64(n)))
	return n-rank >= minTail
}

// highestSupported picks, from candidate quantiles, the highest one that
// n samples support (see supported); ok is false when none is.
func highestSupported(n int, candidates []float64) (q float64, ok bool) {
	for _, c := range candidates {
		if supported(n, c) && (!ok || c > q) {
			q, ok = c, true
		}
	}
	return q, ok
}

// millis converts durations to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median of an unsorted sample (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean of a sample (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
