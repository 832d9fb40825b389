// Package online implements streaming recalibration of the paper's Eq. 17
// prediction model from runtime labeled samples: a recursive least-squares
// refit with exponential forgetting (rank-1 Sherman–Morrison updates on the
// inverse normal equations, zero steady-state allocations), rolling residual
// drift detection, shadow-vs-live scoring with the paper's ME/WAE/TE rates,
// and guarded promotion of the shadow model into the serving path.
//
// The deployed model is fit once from training simulation, but silicon
// drifts away from its training distribution — aging, temperature and
// process variation shift the sensor→critical-node mapping. This package is
// the continuous-calibration tier that closes the loop: occasionally
// available ground-truth critical-node voltages (periodic on-die scan, or
// offline replay through internal/traceio) stream in as (x, f) pairs and
// keep a shadow refit converging toward the current silicon.
package online

import (
	"fmt"
	"math"

	"voltsense/internal/mat"
	"voltsense/internal/ols"
)

// RecursiveOLS maintains the multi-output least-squares fit
//
//	min_{θ} Σ_i λ^{n-1-i} ‖f_i − θᵀ z_i‖²,  z_i = [x_i − x₀; 1]
//
// incrementally. The intercept is folded into an augmented regressor; the
// fixed shift x₀/f₀ (the first ingested sample) only improves conditioning —
// the recovered Model is identical to fitting the raw data.
//
// Warmup buffers samples until the weighted Gram matrix A = Σ w_i z_i z_iᵀ is
// invertible (earliest at n = q+2), then initializes P = A⁻¹ and B = Σ w_i
// z_i f_iᵀ directly from the buffer — so with forgetting 1 the recursion is
// algebraically exact against a from-scratch batch solve, not an approximation
// seeded from δ·I. After warmup each sample costs one rank-1 Sherman–Morrison
// update
//
//	P ← (P − P z zᵀ P / (λ + zᵀ P z)) / λ,   B ← λ B + z f̃ᵀ
//
// which is O((q+1)² + (q+1)K) with zero allocations; the coefficient matrix
// θ = P·B is refreshed lazily on first use after an update.
//
// RecursiveOLS is not safe for concurrent use; Adapter serializes access.
type RecursiveOLS struct {
	q, k       int
	forgetting float64

	// Shift of the regression variables: x0 (len q) and f0 (len k) are the
	// first ingested sample. Fixed for the lifetime of the estimator.
	x0, f0 []float64

	// Warmup buffers (row per sample), released once ready.
	bufX, bufF [][]float64

	ready bool
	n     int // total samples ingested

	p     *mat.Matrix // (q+1)×(q+1) inverse weighted Gram
	b     *mat.Matrix // (q+1)×k weighted cross-moments
	theta *mat.Matrix // (q+1)×k coefficients P·B, valid when !dirty
	dirty bool

	z, pz, fd []float64 // steady-state scratch: augmented regressor, P·z, shifted target
}

// NewRecursiveOLS returns an estimator for q sensor inputs and k outputs with
// the given forgetting factor λ ∈ (0, 1]; λ = 1 is ordinary least squares,
// smaller values discount old samples with half-life ln 2 / (1 − λ) samples.
func NewRecursiveOLS(q, k int, forgetting float64) *RecursiveOLS {
	if q <= 0 || k <= 0 {
		panic(fmt.Sprintf("online: invalid shape q=%d k=%d", q, k))
	}
	if !(forgetting > 0 && forgetting <= 1) {
		panic(fmt.Sprintf("online: forgetting factor %v outside (0, 1]", forgetting))
	}
	d := q + 1
	return &RecursiveOLS{
		q: q, k: k, forgetting: forgetting,
		p:     mat.Zeros(d, d),
		b:     mat.Zeros(d, k),
		theta: mat.Zeros(d, k),
		z:     make([]float64, d),
		pz:    make([]float64, d),
		fd:    make([]float64, k),
	}
}

// Samples returns the number of samples ingested so far.
func (r *RecursiveOLS) Samples() int { return r.n }

// Ready reports whether enough samples have arrived to determine the
// coefficients (the warmup Gram matrix has become invertible).
func (r *RecursiveOLS) Ready() bool { return r.ready }

// Ingest folds one labeled sample (sensor readings x, ground-truth voltages
// f) into the fit. It panics on a length mismatch and returns an error on
// non-finite values, leaving the estimator untouched. After warmup the call
// performs no heap allocations.
func (r *RecursiveOLS) Ingest(x, f []float64) error {
	if len(x) != r.q || len(f) != r.k {
		panic(fmt.Sprintf("online: Ingest got len(x)=%d len(f)=%d, want %d and %d",
			len(x), len(f), r.q, r.k))
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("online: sensor reading %d is non-finite (%v)", i, v)
		}
	}
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("online: ground-truth voltage %d is non-finite (%v)", i, v)
		}
	}
	if !r.ready {
		r.warmup(x, f)
		return nil
	}
	r.update(x, f)
	return nil
}

// warmup buffers the sample and attempts the direct batch initialization
// once enough rows are present.
func (r *RecursiveOLS) warmup(x, f []float64) {
	if r.n == 0 {
		r.x0 = append([]float64(nil), x...)
		r.f0 = append([]float64(nil), f...)
	}
	r.bufX = append(r.bufX, append([]float64(nil), x...))
	r.bufF = append(r.bufF, append([]float64(nil), f...))
	r.n++
	if r.n < r.q+2 {
		return
	}
	d := r.q + 1
	a := mat.Zeros(d, d)
	b := mat.Zeros(d, r.k)
	w := 1.0 // weight of the newest sample; older rows get λ^(age)
	for s := len(r.bufX) - 1; s >= 0; s-- {
		for i := 0; i < r.q; i++ {
			r.z[i] = r.bufX[s][i] - r.x0[i]
		}
		r.z[r.q] = 1
		for i := 0; i < d; i++ {
			wz := w * r.z[i]
			arow := a.Row(i)
			for j := 0; j < d; j++ {
				arow[j] += wz * r.z[j]
			}
			brow := b.Row(i)
			for j := 0; j < r.k; j++ {
				brow[j] += wz * (r.bufF[s][j] - r.f0[j])
			}
		}
		w *= r.forgetting
	}
	lu, err := mat.FactorLU(a)
	if err != nil {
		return // still rank-deficient; keep buffering
	}
	r.p = lu.Inverse()
	r.b = b
	r.bufX, r.bufF = nil, nil
	r.ready = true
	r.dirty = true
}

// update applies the Sherman–Morrison rank-1 recursion in place.
func (r *RecursiveOLS) update(x, f []float64) {
	d := r.q + 1
	for i := 0; i < r.q; i++ {
		r.z[i] = x[i] - r.x0[i]
	}
	r.z[r.q] = 1
	for i := 0; i < r.k; i++ {
		r.fd[i] = f[i] - r.f0[i]
	}
	// pz = P z (P is symmetric, so row-major rows are the needed columns).
	for i := 0; i < d; i++ {
		r.pz[i] = mat.Dot(r.p.Row(i), r.z)
	}
	denom := r.forgetting + mat.Dot(r.z, r.pz)
	invL := 1 / r.forgetting
	for i := 0; i < d; i++ {
		prow := r.p.Row(i)
		s := r.pz[i] / denom
		for j := 0; j < d; j++ {
			prow[j] = (prow[j] - s*r.pz[j]) * invL
		}
	}
	for i := 0; i < d; i++ {
		brow := r.b.Row(i)
		zi := r.z[i]
		for j := 0; j < r.k; j++ {
			brow[j] = r.forgetting*brow[j] + zi*r.fd[j]
		}
	}
	r.n++
	r.dirty = true
}

// refresh recomputes θ = P·B into the preallocated buffer.
func (r *RecursiveOLS) refresh() {
	if !r.dirty {
		return
	}
	mat.MulInto(r.theta, r.p, r.b)
	r.dirty = false
}

// PredictInto evaluates the current fit on one sensor reading vector into
// dst (length k) without allocating, and returns dst. It panics when called
// before Ready or on a length mismatch.
func (r *RecursiveOLS) PredictInto(dst, x []float64) []float64 {
	if !r.ready {
		panic("online: PredictInto before warmup completed")
	}
	if len(dst) != r.k || len(x) != r.q {
		panic(fmt.Sprintf("online: PredictInto got len(dst)=%d len(x)=%d, want %d and %d",
			len(dst), len(x), r.k, r.q))
	}
	r.refresh()
	for j := 0; j < r.k; j++ {
		dst[j] = r.f0[j] + r.theta.At(r.q, j)
	}
	for i := 0; i < r.q; i++ {
		xi := x[i] - r.x0[i]
		if xi == 0 {
			continue
		}
		trow := r.theta.Row(i)
		for j := 0; j < r.k; j++ {
			dst[j] += trow[j] * xi
		}
	}
	return dst
}

// Finite reports whether every current coefficient is finite — a promotion
// guard against a fit blown up by near-singular windows.
func (r *RecursiveOLS) Finite() bool {
	if !r.ready {
		return false
	}
	r.refresh()
	for _, v := range r.theta.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Model materializes the current fit as an ols.Model (undoing the internal
// shift), suitable for core.Predictor promotion. It allocates; call it at
// promotion time, not per sample. Model panics when called before Ready.
func (r *RecursiveOLS) Model() *ols.Model {
	if !r.ready {
		panic("online: Model before warmup completed")
	}
	r.refresh()
	alpha := mat.Zeros(r.k, r.q)
	c := make([]float64, r.k)
	for kk := 0; kk < r.k; kk++ {
		arow := alpha.Row(kk)
		dot := 0.0
		for i := 0; i < r.q; i++ {
			arow[i] = r.theta.At(i, kk)
			dot += arow[i] * r.x0[i]
		}
		c[kk] = r.f0[kk] + r.theta.At(r.q, kk) - dot
	}
	return &ols.Model{Alpha: alpha, C: c}
}
