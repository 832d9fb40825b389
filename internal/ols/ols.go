// Package ols implements the multi-output ordinary least-squares fit of the
// paper's Eq. 17: after group lasso has chosen the Q sensors, an unbiased
// linear model with intercept
//
//	min_{α, c} ‖F − α·Xˢ − C‖_F
//
// is refit on the raw (unnormalized) selected-sensor data, because the
// group-lasso coefficients are biased by the budget constraint (the paper's
// Section 2.3 example). This package also provides the error metrics used
// throughout the evaluation.
package ols

import (
	"fmt"
	"math"

	"voltsense/internal/mat"
)

// Model is a fitted linear predictor f ≈ α·x + c.
type Model struct {
	Alpha *mat.Matrix // K-by-Q coefficients
	C     []float64   // K intercepts
}

// Fit solves the least-squares problem for x (Q-by-N selected-sensor
// samples) and f (K-by-N block-voltage samples). Centering eliminates the
// intercept from the solve; the QR factorization of the centered design
// handles the rest. Fit returns an error when the design is rank-deficient
// (e.g. duplicated sensors). It is the full model of Factor(x, f).
func Fit(x, f *mat.Matrix) (*Model, error) {
	if x.Cols() != f.Cols() {
		panic(fmt.Sprintf("ols: x has %d samples, f has %d", x.Cols(), f.Cols()))
	}
	if err := checkSamples(x.Cols(), x.Rows()); err != nil {
		return nil, err
	}
	fz, err := Factor(x, f)
	if err != nil {
		return nil, err
	}
	return fz.Model()
}

// checkSamples rejects n samples for q coefficients plus the intercept.
func checkSamples(n, q int) error {
	if n < q+1 {
		return fmt.Errorf("ols: %d samples cannot determine %d coefficients plus intercept", n, q)
	}
	return nil
}

// Factorization is the QR factorization behind an Eq. 17 refit, reduced to
// what every model over a subset of its sensors needs: the Q-by-Q factor R
// of the centered design, the head (first Q entries) of Qᵀ(f_k − f̄_k) for
// every output, and the squared residual the least-squares fit leaves. A
// model over fewer sensors follows from Drop by Givens column deletion in
// O(Q²·K), without touching the N samples again.
type Factorization struct {
	n     int         // samples
	r     *mat.Matrix // Q-by-Q upper triangular
	head  *mat.Matrix // K-by-Q: row k is the head of Qᵀ(f_k − f̄_k)
	resid float64     // ‖F − F̂‖²_F: the transformed tail plus every rotated-out row
	fNorm float64     // ‖F‖_F of the raw targets
	xMean []float64   // sample means of the current columns' sensors
	fMean []float64   // sample means of the targets
}

// Factor centers the samples x (Q-by-N, one sensor per row) and f (K-by-N,
// one block per row) and factors the one against the other. The design's
// rows are the columns the QR factors, and the targets' rows the
// right-hand sides it transforms, so neither is transposed. Factor needs at
// least as many samples as sensors; whether the model is solvable is left
// to Check, so that a rank-deficient design can still yield its submodels.
func Factor(x, f *mat.Matrix) (*Factorization, error) {
	if x.Cols() != f.Cols() {
		panic(fmt.Sprintf("ols: x has %d samples, f has %d", x.Cols(), f.Cols()))
	}
	q, n := x.Rows(), x.Cols()
	if n < q {
		return nil, checkSamples(n, q)
	}
	k := f.Rows()
	xMean := mat.RowMeans(x)
	fMean := mat.RowMeans(f)
	qr := mat.FactorQRColumns(centered(x, xMean))
	w := centered(f, fMean)
	qr.ApplyQT(w)
	head := mat.Zeros(k, q)
	resid := 0.0
	for i := 0; i < k; i++ {
		row := w.Row(i)
		copy(head.Row(i), row[:q])
		for _, v := range row[q:] {
			resid += v * v
		}
	}
	return &Factorization{
		n:     n,
		r:     qr.R(),
		head:  head,
		resid: resid,
		fNorm: f.FrobeniusNorm(),
		xMean: xMean,
		fMean: fMean,
	}, nil
}

// centered returns m with every row's mean subtracted.
func centered(m *mat.Matrix, means []float64) *mat.Matrix {
	out := mat.Zeros(m.Rows(), m.Cols())
	for i, mu := range means {
		dst := out.Row(i)
		for j, v := range m.Row(i) {
			dst[j] = v - mu
		}
	}
	return out
}

// Check reports whether Model can solve: at least Q+1 samples and no
// (numerically) zero diagonal entry |r_ii| <= 1e-12·max|r_jj| in R.
func (fz *Factorization) Check() error {
	if err := checkSamples(fz.n, fz.r.Rows()); err != nil {
		return err
	}
	if mat.UpperSingular(fz.r) {
		return fmt.Errorf("ols: rank-deficient design: %w", mat.ErrSingular)
	}
	return nil
}

// Model back-substitutes R·αᵀ = head for the coefficients and recovers the
// intercepts from the sample means.
func (fz *Factorization) Model() (*Model, error) {
	if err := fz.Check(); err != nil {
		return nil, err
	}
	alpha, err := mat.SolveUpperRows(fz.r, fz.head) // K-by-Q
	if err != nil {
		return nil, fmt.Errorf("ols: rank-deficient design: %w", err)
	}
	c := make([]float64, alpha.Rows())
	for i := range c {
		c[i] = fz.fMean[i] - mat.Dot(alpha.Row(i), fz.xMean)
	}
	return &Model{Alpha: alpha, C: c}, nil
}

// RelError returns the training relative error ‖F − F̂‖_F / ‖F‖_F of the
// least-squares model, from the residual the factorization carries: no
// prediction is formed. Like RelativeError it is +Inf for all-zero targets.
func (fz *Factorization) RelError() float64 {
	if fz.fNorm == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(fz.resid) / fz.fNorm
}

// Drop returns the factorization of the same fit without the sensor in
// column p (0-based among the columns still present). Deleting column p
// leaves R upper Hessenberg from p on; Givens rotations of rows (j, j+1),
// j = p..Q-2, restore the triangle, the same rotations carry the head, and
// the head's last entry, rotated out of the fit, joins the residual
// (Golub & Van Loan, "Updating matrix factorizations"). fz is unchanged.
func (fz *Factorization) Drop(p int) *Factorization {
	q := fz.r.Rows()
	if p < 0 || p >= q {
		panic(fmt.Sprintf("ols: Drop column %d of %d", p, q))
	}
	// h is R without column p: q-by-(q-1), upper Hessenberg from column p.
	w := q - 1
	h := make([]float64, q*w)
	for i := 0; i < q; i++ {
		src := fz.r.Row(i)
		copy(h[i*w:i*w+p], src[:p])
		copy(h[i*w+p:(i+1)*w], src[p+1:])
	}
	cs := make([]float64, 2*(w-p))
	for j := p; j < w; j++ {
		a, b := h[j*w+j], h[(j+1)*w+j]
		c, s := 1.0, 0.0
		if r := math.Hypot(a, b); r != 0 {
			c, s = a/r, b/r
			h[j*w+j] = r
		}
		h[(j+1)*w+j] = 0
		for l := j + 1; l < w; l++ {
			x, y := h[j*w+l], h[(j+1)*w+l]
			h[j*w+l], h[(j+1)*w+l] = c*x+s*y, c*y-s*x
		}
		cs[2*(j-p)], cs[2*(j-p)+1] = c, s
	}
	k := fz.head.Rows()
	head := mat.Zeros(k, w)
	resid := fz.resid
	row := make([]float64, q)
	for i := 0; i < k; i++ {
		copy(row, fz.head.Row(i))
		for j := p; j < w; j++ {
			c, s := cs[2*(j-p)], cs[2*(j-p)+1]
			x, y := row[j], row[j+1]
			row[j], row[j+1] = c*x+s*y, c*y-s*x
		}
		copy(head.Row(i), row[:w])
		resid += row[w] * row[w]
	}
	xMean := make([]float64, 0, w)
	xMean = append(append(xMean, fz.xMean[:p]...), fz.xMean[p+1:]...)
	return &Factorization{
		n:     fz.n,
		r:     mat.New(w, w, h[:w*w]),
		head:  head,
		resid: resid,
		fNorm: fz.fNorm,
		xMean: xMean,
		fMean: fz.fMean,
	}
}

// NumInputs returns Q.
func (m *Model) NumInputs() int { return m.Alpha.Cols() }

// NumOutputs returns K.
func (m *Model) NumOutputs() int { return m.Alpha.Rows() }

// Predict evaluates the model on one sensor reading vector (length Q),
// returning the K predicted block voltages. This is the paper's Eq. 20 —
// the only computation needed at runtime.
func (m *Model) Predict(x []float64) []float64 {
	out := mat.MulVec(m.Alpha, x)
	for i := range out {
		out[i] += m.C[i]
	}
	return out
}

// PredictMatrix evaluates the model on Q-by-N samples, returning K-by-N
// predictions.
func (m *Model) PredictMatrix(x *mat.Matrix) *mat.Matrix {
	out := mat.Mul(m.Alpha, x)
	for i := 0; i < out.Rows(); i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += m.C[i]
		}
	}
	return out
}

// RelativeError returns ‖pred − truth‖_F / ‖truth‖_F — the aggregated
// relative prediction error the paper's Table 1 reports over all function
// blocks and benchmarks. The difference is never materialized.
func RelativeError(pred, truth *mat.Matrix) float64 {
	den := truth.FrobeniusNorm()
	if den == 0 {
		return math.Inf(1)
	}
	return mat.FrobeniusDistance(pred, truth) / den
}

// MaxAbsError returns the worst elementwise error.
func MaxAbsError(pred, truth *mat.Matrix) float64 {
	return mat.MaxAbsDiff(pred, truth)
}
