package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank returns the nearest-rank q-quantile of an ascending slice.
func rank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLevel is the highest percentile of n samples that still leaves at
// least ten beyond it, from the ladder p99, p90 — the maximum below 100
// samples.
func tailLevel(n int) float64 {
	switch {
	case n >= 1000:
		return 0.99
	case n >= 100:
		return 0.90
	}
	return 1
}

// tail returns xs at its tailLevel, and that level.
func tail(xs []float64) (float64, float64) {
	lvl := tailLevel(len(xs))
	return rank(sortedCopy(xs), lvl), lvl
}

// windowed cuts xs, in the order the operations ran, into consecutive
// windows of per values and returns the median of the windows'
// q-quantiles: a figure that one stall of the machine, shorter than half
// the phase, cannot move by itself. Fewer than two windows' worth of
// values gives the plain quantile.
func windowed(xs []float64, per int, q float64) float64 {
	if per < 1 || len(xs) < 2*per {
		return rank(sortedCopy(xs), q)
	}
	var w []float64
	for lo := 0; lo+per <= len(xs); lo += per {
		w = append(w, rank(sortedCopy(xs[lo:lo+per]), q))
	}
	return median(w)
}

// windowRates returns, for each of the consecutive windows of width seconds
// that fit in elapsed seconds, the number of operations finishing in it per
// second, given each operation's finish time in seconds from the start of
// the phase. A phase shorter than two windows gives its overall rate.
func windowRates(done []float64, elapsed, width float64) []float64 {
	n := int(elapsed / width)
	if n < 2 {
		return []float64{float64(len(done)) / elapsed}
	}
	rates := make([]float64, n)
	for _, t := range done {
		if k := int(t / width); k >= 0 && k < n {
			rates[k] += 1 / width
		}
	}
	return rates
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// interpolation), so spreads computed here match that definition.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
