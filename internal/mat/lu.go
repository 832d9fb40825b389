package mat

import (
	"fmt"
	"math"
)

// LU holds an LU factorization with partial pivoting: P A = L U.
type LU struct {
	lu  *Matrix // L (unit diagonal, below) and U (on and above) packed
	piv []int   // row permutation
}

// FactorLU computes the LU factorization of the square matrix a with partial
// pivoting. It returns ErrSingular if a pivot is exactly zero.
func FactorLU(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: FactorLU needs square input, got %dx%d", a.rows, a.cols))
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Find the pivot row.
		p, pv := k, math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.data[i*n+k]); a > pv {
				p, pv = i, a
			}
		}
		if pv == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk := lu.data[k*n : (k+1)*n]
			rp := lu.data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		ukk := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			lik := lu.data[i*n+k] / ukk
			lu.data[i*n+k] = lik
			if lik == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.data[i*n+j] -= lik * lu.data[k*n+j]
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// Solve returns x such that A x = b.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: LU.Solve rhs length %d, want %d", len(b), n))
	}
	x := make([]float64, n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward: L y = Pb (unit diagonal).
	for i := 1; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= f.lu.data[i*n+k] * x[k]
		}
		x[i] = s
	}
	// Backward: U x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= f.lu.data[i*n+k] * x[k]
		}
		x[i] = s / f.lu.data[i*n+i]
	}
	return x
}

// Inverse returns A⁻¹, computed column by column. Prefer Solve when only a
// product with the inverse is needed.
func (f *LU) Inverse() *Matrix {
	n := f.lu.rows
	inv := Zeros(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		inv.SetCol(j, f.Solve(e))
		e[j] = 0
	}
	return inv
}
