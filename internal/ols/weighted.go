package ols

import (
	"fmt"
	"math"

	"voltsense/internal/mat"
)

// FitWeighted solves the per-sample weighted least-squares problem
//
//	min_{α, c} Σ_j w_j ‖f_j − α·x_j − c‖²
//
// for x (Q-by-N selected-sensor samples), f (K-by-N target samples) and one
// non-negative weight per sample (column). It is the generalized-least-squares
// counterpart of Fit for diagonal sample covariances: whiten both sides by
// √w_j, eliminate the intercept against the weighted means, and solve the
// whitened design by QR. Uniform weights reproduce Fit exactly (the common
// factor cancels), which TestFitWeightedUniformMatchesFit pins to 1e-9.
//
// Samples with weight zero are retained but contribute nothing; at least
// Q+1 samples must carry positive weight or the design is underdetermined.
func FitWeighted(x, f *mat.Matrix, w []float64) (*Model, error) {
	if x.Cols() != f.Cols() {
		panic(fmt.Sprintf("ols: x has %d samples, f has %d", x.Cols(), f.Cols()))
	}
	if len(w) != x.Cols() {
		panic(fmt.Sprintf("ols: %d weights for %d samples", len(w), x.Cols()))
	}
	q, n := x.Rows(), x.Cols()
	k := f.Rows()
	var wSum float64
	positive := 0
	for _, v := range w {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("ols: invalid sample weight %v", v)
		}
		if v > 0 {
			positive++
		}
		wSum += v
	}
	if positive < q+1 {
		return nil, fmt.Errorf("ols: %d positively-weighted samples cannot determine %d coefficients plus intercept", positive, q)
	}

	// Weighted row means: the intercept of the weighted problem is eliminated
	// against Σ w_j x_j / Σ w_j rather than the plain mean.
	xMean := weightedRowMeans(x, w, wSum)
	fMean := weightedRowMeans(f, w, wSum)

	// Whitened design (one centered sensor per row, the columns the QR
	// factors) and right-hand sides (one centered target per row): every
	// sample scaled by √w_j.
	sw := make([]float64, n)
	for j, v := range w {
		sw[j] = math.Sqrt(v)
	}
	design := centered(x, xMean, sw)
	rhs := centered(f, fMean, sw)
	alpha, err := mat.FactorQRColumns(design).SolveRows(rhs) // K-by-Q
	if err != nil {
		return nil, fmt.Errorf("ols: rank-deficient weighted design: %w", err)
	}
	c := make([]float64, k)
	for i := 0; i < k; i++ {
		c[i] = fMean[i] - mat.Dot(alpha.Row(i), xMean)
	}
	return &Model{Alpha: alpha, C: c}, nil
}

// weightedRowMeans returns Σ_j w_j m_ij / Σ_j w_j for every row i.
func weightedRowMeans(m *mat.Matrix, w []float64, wSum float64) []float64 {
	out := make([]float64, m.Rows())
	if wSum == 0 {
		return out
	}
	for i := range out {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += w[j] * v
		}
		out[i] = s / wSum
	}
	return out
}

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
