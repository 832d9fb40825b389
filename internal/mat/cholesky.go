package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by FactorCholesky when the input matrix
// is not symmetric positive definite to working precision.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L Lᵀ.
type Cholesky struct {
	l *Matrix // lower triangular, n-by-n
}

// FactorCholesky computes the Cholesky factorization of the symmetric
// positive definite matrix a. Only the lower triangle of a is read.
func FactorCholesky(a *Matrix) (*Cholesky, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: FactorCholesky needs square input, got %dx%d", a.rows, a.cols))
	}
	n := a.rows
	l := Zeros(n, n)
	for j := 0; j < n; j++ {
		d := a.data[j*n+j]
		for k := 0; k < j; k++ {
			ljk := l.data[j*n+k]
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.data[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			s := a.data[i*n+j]
			for k := 0; k < j; k++ {
				s -= l.data[i*n+k] * l.data[j*n+k]
			}
			l.data[i*n+j] = s / ljj
		}
	}
	return &Cholesky{l: l}, nil
}

// L returns the lower-triangular factor (aliased).
func (c *Cholesky) L() *Matrix { return c.l }

// Solve returns x such that A x = b.
func (c *Cholesky) Solve(b []float64) []float64 {
	n := c.l.rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: Cholesky.Solve rhs length %d, want %d", len(b), n))
	}
	y := make([]float64, n)
	// Forward: L y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		row := c.l.data[i*n : i*n+i]
		for k, v := range row {
			s -= v * y[k]
		}
		y[i] = s / c.l.data[i*n+i]
	}
	// Backward: Lᵀ x = y.
	x := y
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= c.l.data[k*n+i] * x[k]
		}
		x[i] = s / c.l.data[i*n+i]
	}
	return x
}

// SolveMatrix solves A X = B column by column.
func (c *Cholesky) SolveMatrix(b *Matrix) *Matrix {
	if b.rows != c.l.rows {
		panic(fmt.Sprintf("mat: Cholesky.SolveMatrix rhs rows %d, want %d", b.rows, c.l.rows))
	}
	out := Zeros(c.l.rows, b.cols)
	for j := 0; j < b.cols; j++ {
		out.SetCol(j, c.Solve(b.Col(j)))
	}
	return out
}
