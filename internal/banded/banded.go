// Package banded implements symmetric banded matrices and a banded Cholesky
// factorization.
//
// The power-delivery mesh in voltsense is a regular 2-D grid. Numbered
// along its shorter axis, the system matrix (G + C/h) of the backward-Euler
// transient solve is symmetric positive definite with half-bandwidth equal
// to the mesh's shorter side. Factoring it once in banded form and reusing
// the factor for every time step is the transient engine's path for meshes
// whose band stays narrow; the preconditioned conjugate gradient in package
// sparse takes the wider ones, where the factor's O(n·bw²) time and O(n·bw)
// memory stop scaling.
package banded

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite mirrors mat.ErrNotPositiveDefinite for the banded
// factorization.
var ErrNotPositiveDefinite = errors.New("banded: matrix is not positive definite")

// SymBanded is a symmetric n-by-n matrix with half-bandwidth bw, storing the
// diagonal and the bw sub-diagonals. Element (i, j) with i >= j and
// i-j <= bw lives at data[i*(bw+1) + (i-j)].
type SymBanded struct {
	n, bw int
	data  []float64
}

// NewSymBanded returns a zero symmetric banded matrix of order n with
// half-bandwidth bw.
func NewSymBanded(n, bw int) *SymBanded {
	if n < 0 || bw < 0 {
		panic(fmt.Sprintf("banded: invalid size n=%d bw=%d", n, bw))
	}
	if bw >= n && n > 0 {
		bw = n - 1
	}
	return &SymBanded{n: n, bw: bw, data: make([]float64, n*(bw+1))}
}

// Order returns n.
func (s *SymBanded) Order() int { return s.n }

// Bandwidth returns the half-bandwidth.
func (s *SymBanded) Bandwidth() int { return s.bw }

// At returns element (i, j). Entries outside the band are zero.
func (s *SymBanded) At(i, j int) float64 {
	s.check(i, j)
	if i < j {
		i, j = j, i
	}
	if i-j > s.bw {
		return 0
	}
	return s.data[i*(s.bw+1)+(i-j)]
}

// Set assigns element (i, j) (and by symmetry (j, i)). Setting outside the
// band panics.
func (s *SymBanded) Set(i, j int, v float64) {
	s.check(i, j)
	if i < j {
		i, j = j, i
	}
	if i-j > s.bw {
		panic(fmt.Sprintf("banded: Set(%d,%d) outside bandwidth %d", i, j, s.bw))
	}
	s.data[i*(s.bw+1)+(i-j)] = v
}

// Add accumulates v into element (i, j) (and (j, i)).
func (s *SymBanded) Add(i, j int, v float64) {
	s.Set(i, j, s.At(i, j)+v)
}

func (s *SymBanded) check(i, j int) {
	if i < 0 || i >= s.n || j < 0 || j >= s.n {
		panic(fmt.Sprintf("banded: index (%d,%d) out of range %d", i, j, s.n))
	}
}

// Clone returns a deep copy.
func (s *SymBanded) Clone() *SymBanded {
	d := make([]float64, len(s.data))
	copy(d, s.data)
	return &SymBanded{n: s.n, bw: s.bw, data: d}
}

// MulVec returns s * x using the symmetric band structure.
func (s *SymBanded) MulVec(x []float64) []float64 {
	if len(x) != s.n {
		panic(fmt.Sprintf("banded: MulVec length %d, want %d", len(x), s.n))
	}
	y := make([]float64, s.n)
	w := s.bw + 1
	for i := 0; i < s.n; i++ {
		// Diagonal.
		y[i] += s.data[i*w] * x[i]
		// Sub-diagonal entries (i, i-d) contribute to rows i and i-d.
		lo := i - s.bw
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			v := s.data[i*w+(i-j)]
			if v == 0 {
				continue
			}
			y[i] += v * x[j]
			y[j] += v * x[i]
		}
	}
	return y
}

// CholFactor is the banded Cholesky factor L of a symmetric positive
// definite banded matrix: A = L Lᵀ, with L lower triangular and of the same
// half-bandwidth bw.
//
// Row i stores its bw sub-diagonal entries L[i][i-bw .. i-1] contiguously in
// ascending column order at data[i*bw : (i+1)*bw]; the slots of the first
// bw rows that would lie left of column 0 are zero. The diagonal is kept
// only as its reciprocal. Both triangular sweeps then walk one row at a
// time over unit-stride memory: the forward sweep as a dot product, the
// backward sweep as an axpy.
type CholFactor struct {
	n, bw int
	data  []float64 // n rows of bw sub-diagonal entries
	rdiag []float64 // 1 / L[i][i]
}

// Factor computes the banded Cholesky factorization of s. s is not modified.
// It runs row by row (the Cholesky–Crout order): every entry of row i is a
// dot product of row i's finished prefix with the matching stretch of an
// earlier row, so the inner loop is the same unit-stride kernel the forward
// sweep uses.
func Factor(s *SymBanded) (*CholFactor, error) {
	n, bw := s.n, s.bw
	c := &CholFactor{n: n, bw: bw, data: make([]float64, n*bw), rdiag: make([]float64, n)}
	for i := 0; i < n; i++ {
		row := c.data[i*bw : (i+1)*bw]
		lo := max(i-bw, 0)
		for j := lo; j < i; j++ {
			// L[i][j] sits at row[k]. The columns rows i and j share left of
			// j, lo .. j-1, end row i just before k and end row j.
			k, m := j-i+bw, j-lo
			row[k] = (s.data[i*(bw+1)+(i-j)] - dot(row[k-m:k], c.data[(j+1)*bw-m:(j+1)*bw])) * c.rdiag[j]
		}
		d := s.data[i*(bw+1)] - dot(row[lo-i+bw:], row[lo-i+bw:])
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		c.rdiag[i] = 1 / math.Sqrt(d)
	}
	return c, nil
}

// at returns L[i][j] (zero outside the band and above the diagonal).
func (c *CholFactor) at(i, j int) float64 {
	switch {
	case j > i || i-j > c.bw:
		return 0
	case i == j:
		return 1 / c.rdiag[i]
	}
	return c.data[i*c.bw+(j-i+c.bw)]
}

// Solve returns x with A x = b, overwriting nothing; b is not modified.
func (c *CholFactor) Solve(b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("banded: Solve length %d, want %d", len(b), c.n))
	}
	x := make([]float64, c.n)
	copy(x, b)
	c.SolveInPlace(x)
	return x
}

// SolveInto writes the solution of A x = b into dst without touching b.
// dst and b must have length n and must not alias. Like SolveInPlace it
// allocates nothing; it exists so a caller with separate state and
// right-hand-side buffers (the transient engine's step) avoids the extra
// copy a Solve call would force.
func (c *CholFactor) SolveInto(dst, b []float64) {
	if len(b) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("banded: SolveInto lengths %d, %d, want %d", len(dst), len(b), c.n))
	}
	copy(dst, b)
	c.SolveInPlace(dst)
}

// SolveInPlace overwrites b with the solution of A x = b. It allocates
// nothing, which matters in the per-time-step inner loop of the transient
// engine.
func (c *CholFactor) SolveInPlace(b []float64) {
	n, bw := c.n, c.bw
	if len(b) != n {
		panic(fmt.Sprintf("banded: SolveInPlace length %d, want %d", len(b), n))
	}
	// Forward, L y = b: y[i] depends on y[i-bw .. i-1] through one dot
	// product of row i.
	for i := 0; i < n; i++ {
		m := min(i, bw)
		b[i] = (b[i] - dot(c.data[(i+1)*bw-m:(i+1)*bw], b[i-m:i])) * c.rdiag[i]
	}
	// Backward, Lᵀ x = y: once x[i] is known, row i of L holds its
	// coefficients in the equations of x[i-bw .. i-1], so subtracting its
	// contribution is an axpy over the same row.
	for i := n - 1; i >= 0; i-- {
		xi := b[i] * c.rdiag[i]
		b[i] = xi
		m := min(i, bw)
		axpyNeg(xi, c.data[(i+1)*bw-m:(i+1)*bw], b[i-m:i])
	}
}

// dot returns Σ a[k]·b[k] over len(a) terms with four independent
// accumulators, so consecutive multiply-adds do not wait on each other.
// b must be at least as long as a.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	// Testing both lengths lets the compiler drop every bounds check.
	for len(a) >= 4 && len(b) >= 4 {
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
		a, b = a[4:], b[4:]
	}
	for k := 0; k < len(a) && k < len(b); k++ {
		s0 += a[k] * b[k]
	}
	return (s0 + s1) + (s2 + s3)
}

// axpyNeg computes y[k] -= alpha·x[k] over len(x) terms. y must be at least
// as long as x.
func axpyNeg(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for k, v := range x {
		y[k] -= alpha * v
	}
}
