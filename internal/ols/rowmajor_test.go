package ols

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"voltsense/internal/mat"
)

// This file keeps the row-major Householder QR that Fit and GLSGain used
// before the column-layout mat.QR, as the oracle the new path
// must match bitwise: the factorization walks an N-by-Q design with stride
// Q and the solve applies the reflectors to an N-by-K right-hand side.

// rowMajorQR is the packed factorization: reflectors below the diagonal, R on
// and above it.
type rowMajorQR struct {
	qr  *mat.Matrix
	tau []float64
}

func factorRowMajor(a *mat.Matrix) *rowMajorQR {
	m, n := a.Rows(), a.Cols()
	if m < n {
		panic(fmt.Sprintf("factorRowMajor needs rows >= cols, got %dx%d", m, n))
	}
	qr := a.Clone()
	d := qr.Data()
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		norm := 0.0
		for i := k; i < m; i++ {
			v := d[i*n+k]
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			tau[k] = 0
			continue
		}
		if d[k*n+k] < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			d[i*n+k] /= norm
		}
		d[k*n+k] += 1
		tau[k] = d[k*n+k]
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += d[i*n+k] * d[i*n+j]
			}
			s = -s / d[k*n+k]
			for i := k; i < m; i++ {
				d[i*n+j] += s * d[i*n+k]
			}
		}
		d[k*n+k] = -norm
	}
	return &rowMajorQR{qr: qr, tau: tau}
}

// solveMatrix returns the n-by-k least-squares solution for an m-by-k
// right-hand side, one column per problem.
func (f *rowMajorQR) solveMatrix(b *mat.Matrix) (*mat.Matrix, error) {
	m, n := f.qr.Rows(), f.qr.Cols()
	if b.Rows() != m {
		panic(fmt.Sprintf("solveMatrix rhs rows %d, want %d", b.Rows(), m))
	}
	qd := f.qr.Data()
	k := b.Cols()
	w := b.Clone()
	wd := w.Data()
	sums := make([]float64, k)
	for r := 0; r < n; r++ {
		tau := f.tau[r]
		if tau == 0 {
			continue
		}
		wr := wd[r*k : (r+1)*k]
		for j := range sums {
			sums[j] = tau * wr[j]
		}
		for i := r + 1; i < m; i++ {
			vi := qd[i*n+r]
			if vi == 0 {
				continue
			}
			row := wd[i*k : (i+1)*k]
			for j, x := range row {
				sums[j] += vi * x
			}
		}
		for j := range sums {
			sums[j] = -sums[j] / tau
		}
		for j := range wr {
			wr[j] += sums[j] * tau
		}
		for i := r + 1; i < m; i++ {
			vi := qd[i*n+r]
			if vi == 0 {
				continue
			}
			row := wd[i*k : (i+1)*k]
			for j := range row {
				row[j] += sums[j] * vi
			}
		}
	}
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		if a := math.Abs(qd[i*n+i]); a > maxDiag {
			maxDiag = a
		}
	}
	out := mat.Zeros(n, k)
	od := out.Data()
	for i := n - 1; i >= 0; i-- {
		rii := qd[i*n+i]
		if math.Abs(rii) <= 1e-12*maxDiag {
			return nil, mat.ErrSingular
		}
		oi := od[i*k : (i+1)*k]
		copy(oi, wd[i*k:(i+1)*k])
		for c := i + 1; c < n; c++ {
			ric := qd[i*n+c]
			if ric == 0 {
				continue
			}
			oc := od[c*k : (c+1)*k]
			for j := range oi {
				oi[j] -= ric * oc[j]
			}
		}
		for j := range oi {
			oi[j] /= rii
		}
	}
	return out, nil
}

// fitRowMajor is Fit through the row-major QR: the centered samples are
// transposed into an N-by-Q design and an N-by-K right-hand side.
func fitRowMajor(x, f *mat.Matrix) (*Model, error) {
	q, n := x.Rows(), x.Cols()
	k := f.Rows()
	if n < q+1 {
		return nil, fmt.Errorf("ols: %d samples cannot determine %d coefficients plus intercept", n, q)
	}
	xMean := mat.RowMeans(x)
	fMean := mat.RowMeans(f)
	design := mat.Zeros(n, q)
	dd := design.Data()
	for i := 0; i < q; i++ {
		mu := xMean[i]
		for j, v := range x.Row(i) {
			dd[j*q+i] = v - mu
		}
	}
	rhs := mat.Zeros(n, k)
	rd := rhs.Data()
	for i := 0; i < k; i++ {
		mu := fMean[i]
		for j, v := range f.Row(i) {
			rd[j*k+i] = v - mu
		}
	}
	sol, err := factorRowMajor(design).solveMatrix(rhs)
	if err != nil {
		return nil, fmt.Errorf("ols: rank-deficient design: %w", err)
	}
	alpha := sol.T()
	c := make([]float64, k)
	for i := 0; i < k; i++ {
		c[i] = fMean[i] - mat.Dot(alpha.Row(i), xMean)
	}
	return &Model{Alpha: alpha, C: c}, nil
}

// sameBits fails the test unless got and want are bitwise identical.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i, v := range want {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("%s: entry %d = %v, row-major oracle %v", what, i, got[i], v)
		}
	}
}

// correlatedSamples returns q sensors of n samples driven by a few shared
// sources, and k targets linear in them plus noise: the shape of a refit.
func correlatedSamples(rng *rand.Rand, q, k, n int) (x, f *mat.Matrix) {
	src := randn(rng, 4, n)
	x = mat.Add(mat.Mul(randn(rng, q, 4), src), mat.Scale(0.3, randn(rng, q, n)))
	f = mat.Add(mat.Mul(randn(rng, k, q), x), mat.Scale(0.05, randn(rng, k, n)))
	for i := 0; i < q; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = 1 + 0.01*row[j] // raw voltages around 1 V
		}
	}
	return x, f
}

func TestColumnQRMatchesRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, sh := range []struct{ n, m, k int }{{1, 1, 1}, {3, 3, 2}, {5, 40, 7}, {12, 90, 33}} {
		a := randn(rng, sh.n, sh.m) // the design's columns as rows
		for i := 0; i < sh.n; i++ {
			for j := i; j < sh.m; j += 3 {
				a.Set(i, j, 0) // exact zeros exercise both skip rules
			}
		}
		a.Set(sh.n-1, sh.m-1, 1) // keep the design full rank
		b := randn(rng, sh.k, sh.m)
		got, errGot := mat.FactorQRColumns(a).SolveRows(b)
		want, errWant := factorRowMajor(a.T()).solveMatrix(b.T())
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("%v: error %v, oracle %v", sh, errGot, errWant)
		}
		if errGot == nil {
			sameBits(t, fmt.Sprint(sh), got.Data(), want.T().Data())
		}
	}
}

func TestFitMatchesRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range []struct{ q, k, n int }{{1, 1, 3}, {4, 3, 60}, {16, 243, 400}} {
		x, f := correlatedSamples(rng, sh.q, sh.k, sh.n)
		got, err := Fit(x, f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fitRowMajor(x, f)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprint("alpha ", sh), got.Alpha.Data(), want.Alpha.Data())
		sameBits(t, fmt.Sprint("c ", sh), got.C, want.C)
	}
}

func TestGLSGainMatchesRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const q, r = 11, 4
	d := randn(rng, q, r)
	nv := make([]float64, q)
	for i := range nv {
		nv[i] = 0.5 + rng.Float64()
	}
	got, err := GLSGain(d, nv)
	if err != nil {
		t.Fatal(err)
	}
	wd, rhs := mat.Zeros(q, r), mat.Zeros(q, q)
	for i := 0; i < q; i++ {
		s := 1 / math.Sqrt(nv[i])
		for j, v := range d.Row(i) {
			wd.Set(i, j, s*v)
		}
		rhs.Set(i, i, s)
	}
	want, err := factorRowMajor(wd).solveMatrix(rhs)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "GLS gain", got.Data(), want.Data())
}

// Fit splits the right-hand sides across the mat pool; the model must be
// bitwise identical at GOMAXPROCS 1 and 2 and under SetParallelism(1).
func TestFitInvariantUnderParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x, f := correlatedSamples(rng, 16, 243, 600)
	mat.SetParallelism(1)
	defer mat.SetParallelism(0)
	want, err := Fit(x, f)
	if err != nil {
		t.Fatal(err)
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		mat.SetParallelism(0)
		got, err := Fit(x, f)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("GOMAXPROCS %d", procs)
		sameBits(t, what+" alpha", got.Alpha.Data(), want.Alpha.Data())
		sameBits(t, what+" c", got.C, want.C)
	}
}
