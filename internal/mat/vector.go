package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// SubVec returns a new slice holding x - y.
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: SubVec length mismatch %d vs %d", len(x), len(y)))
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - y[i]
	}
	return out
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// StdDev returns the population standard deviation of x (dividing by n, to
// match the zero-mean/unit-variance normalization in the paper), or 0 for
// fewer than one element.
func StdDev(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	mu := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}

// Correlation returns the Pearson correlation coefficient of x and y, or 0
// when either input is constant.
func Correlation(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Correlation length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
