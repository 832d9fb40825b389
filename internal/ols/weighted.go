package ols

import (
	"fmt"
	"math"

	"voltsense/internal/mat"
)

// GLSGain computes the generalized-least-squares gain matrix
//
//	P = (Dᵀ W D)⁻¹ Dᵀ W,   W = diag(1/σ²_i)
//
// for a design D whose rows are measurement equations (one per sensor) and
// whose columns are unknowns (basis coefficients), with noiseVar holding the
// per-row measurement noise variance σ²_i > 0. Applying P to a noisy reading
// vector y yields the best linear unbiased estimate of the coefficients —
// exactly the weighted-OLS solve of the whitened system, computed through the
// same Householder QR that Fit uses rather than the normal equations, so the
// conditioning of D is squared nowhere.
//
// GLSGain requires rows ≥ cols (at least as many sensors as coefficients)
// and returns ErrSingular-wrapped errors when the weighted design is
// rank-deficient. When every σ²_i is equal, the common factor cancels and P
// is the plain Moore–Penrose pseudo-inverse of D — the OLS estimator.
func GLSGain(design *mat.Matrix, noiseVar []float64) (*mat.Matrix, error) {
	q, r := design.Rows(), design.Cols()
	if len(noiseVar) != q {
		panic(fmt.Sprintf("ols: %d noise variances for %d design rows", len(noiseVar), q))
	}
	if q < r {
		return nil, fmt.Errorf("ols: GLS design has %d equations for %d unknowns", q, r)
	}
	sqw := make([]float64, q) // √w_i = 1/σ_i
	for i, v := range noiseVar {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("ols: noise variance %v at row %d outside (0, ∞)", v, i)
		}
		sqw[i] = 1 / math.Sqrt(v)
	}
	// Whiten the design and solve against the whitened identity: the
	// solution for the i-th right-hand side √w_i·e_i is P's column i, because
	// P·y = argmin ‖√W(D a − y)‖. The QR takes the design's columns as rows.
	cols := mat.Zeros(r, q)
	for i := 0; i < q; i++ {
		for j, v := range design.Row(i) {
			cols.Set(j, i, sqw[i]*v)
		}
	}
	rhs := mat.Zeros(q, q)
	for i := 0; i < q; i++ {
		rhs.Set(i, i, sqw[i])
	}
	sol, err := mat.FactorQRColumns(cols).SolveRows(rhs) // q-by-r
	if err != nil {
		return nil, fmt.Errorf("ols: GLS gain: %w", err)
	}
	return sol.T(), nil
}
