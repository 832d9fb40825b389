package banded

import (
	"fmt"

	"voltsense/internal/simd"
)

// ColumnStride returns the interleave stride at which SolveColsInPlace
// sweeps m columns fastest: m rounded up to a multiple of four where the
// AVX2 kernel runs, m itself elsewhere. Pad columns between m and the
// stride must hold zeros; they solve to zeros and never become Inf or NaN.
// One column pads to four as well: on the quick mesh a one-column
// transient step measured faster with the padded kernel than with
// SolveInPlace (EXPERIMENTS.md, "Bitwise-exact AVX2 kernels").
func ColumnStride(m int) int {
	if simd.AVX2() {
		return (m + 3) &^ 3
	}
	return m
}

// SolveColsInPlace overwrites the m interleaved right-hand sides in x with
// the solutions of A x = b: element i of column c sits at x[i*m+c]. Every
// column gets exactly SolveInPlace's arithmetic, in the same order, so each
// result equals a SolveInPlace of that column alone bitwise; the sweep
// walks every factor row once for all m columns, where the AVX2 kernel
// solves four columns per vector. It allocates nothing.
func (c *CholFactor) SolveColsInPlace(x []float64, m int) {
	if m < 1 || len(x) != c.n*m {
		panic(fmt.Sprintf("banded: SolveColsInPlace length %d for %d columns, want %d", len(x), m, c.n*m))
	}
	if m == 1 {
		c.SolveInPlace(x)
		return
	}
	done := 0
	if nv := m / 4; nv > 0 && simd.AVX2() {
		solveColsAVX2(c.data, c.rdiag, x, c.n, c.bw, m, nv)
		done = 4 * nv
	}
	c.solveColsGo(x, m, done, m)
}

// solveColsGo sweeps columns [c0, c1) of the m interleaved columns in x, one
// column at a time with SolveInPlace's arithmetic over a stride of m: dot's
// four accumulators by k mod 4 with the trailing terms in the first, and
// axpyNeg's updates. It is the portable path and the oracle of the AVX2
// kernel.
func (c *CholFactor) solveColsGo(x []float64, m, c0, c1 int) {
	n, bw := c.n, c.bw
	for col := c0; col < c1; col++ {
		for i := 0; i < n; i++ {
			mm := min(i, bw)
			l := c.data[(i+1)*bw-mm : (i+1)*bw]
			base := (i-mm)*m + col
			var s0, s1, s2, s3 float64
			k := 0
			for ; k+4 <= mm; k += 4 {
				s0 += l[k] * x[base+k*m]
				s1 += l[k+1] * x[base+(k+1)*m]
				s2 += l[k+2] * x[base+(k+2)*m]
				s3 += l[k+3] * x[base+(k+3)*m]
			}
			for ; k < mm; k++ {
				s0 += l[k] * x[base+k*m]
			}
			x[i*m+col] = (x[i*m+col] - ((s0 + s1) + (s2 + s3))) * c.rdiag[i]
		}
		for i := n - 1; i >= 0; i-- {
			xi := x[i*m+col] * c.rdiag[i]
			x[i*m+col] = xi
			mm := min(i, bw)
			l := c.data[(i+1)*bw-mm : (i+1)*bw]
			base := (i-mm)*m + col
			for k, v := range l {
				x[base+k*m] -= xi * v
			}
		}
	}
}
