package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular (or numerically indistinguishable from singular).
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// QR holds a Householder QR factorization A = Q·R of an m-by-n matrix A with
// m >= n, Q orthogonal (m-by-m, kept implicitly as reflectors) and R upper
// triangular (n-by-n). It is stored by columns: row k of v is column k of
// the factored A, holding R's column k on and above the diagonal and
// reflector k's tail below it, so every reflector is one contiguous run.
type QR struct {
	v   *Matrix   // n-by-m
	tau []float64 // reflector heads; 0 marks a column that needed none
}

// FactorQRColumns computes the Householder QR factorization of the m-by-n
// matrix A whose n columns are the rows of cols (cols is n-by-m, m >= n).
// This is the layout of selected-sensor samples: x.SelectRows(sel) holds
// one design column per contiguous row, so the factorization needs no
// transpose. cols is not modified.
func FactorQRColumns(cols *Matrix) *QR {
	n, m := cols.rows, cols.cols
	if m < n {
		panic(fmt.Sprintf("mat: FactorQRColumns needs at least as many rows as columns, got %d columns of length %d", n, m))
	}
	v := cols.Clone()
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		// Build the Householder reflector annihilating column k below the
		// diagonal.
		vk := v.data[k*m+k : (k+1)*m]
		norm := 0.0
		for _, x := range vk {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		// Choose the reflector sign so the head 1 + a_kk/norm cannot cancel.
		if vk[0] < 0 {
			norm = -norm
		}
		for i := range vk {
			vk[i] /= norm
		}
		vk[0] += 1
		tau[k] = vk[0]

		// Apply the reflector to the trailing columns.
		for j := k + 1; j < n; j++ {
			vj := v.data[j*m+k : (j+1)*m]
			vj = vj[:len(vk)]
			s := 0.0
			for i, x := range vk {
				s += x * vj[i]
			}
			s = -s / vk[0]
			for i, x := range vk {
				vj[i] += s * x
			}
		}
		// Store the diagonal of R (the negated norm) in place of the
		// reflector head; the reflector itself stays in the tail plus tau.
		vk[0] = -norm
	}
	return &QR{v: v, tau: tau}
}

// ApplyQT overwrites every row b_i of b (each of length m) with Qᵀ b_i. The
// rows are independent right-hand sides, processed four per pass so one
// load of a reflector feeds four dot-product chains, and split by rows
// across the worker pool. Each row's arithmetic is the same sequential
// reflector application whatever the grouping or the worker count, so the
// result is bitwise identical for every setting of SetParallelism.
func (f *QR) ApplyQT(b *Matrix) {
	n, m := f.v.rows, f.v.cols
	if b.cols != m {
		panic(fmt.Sprintf("mat: QR.ApplyQT rows of length %d, want %d", b.cols, m))
	}
	flopsPerRow := 4 * n * m
	if runSerial(b.rows, flopsPerRow) {
		f.applyQTRows(b, 0, b.rows)
		return
	}
	parallelFor(b.rows, minRowsPerChunk(flopsPerRow), func(lo, hi int) {
		f.applyQTRows(b, lo, hi)
	})
}

// applyQTRows applies Qᵀ to rows [lo, hi) of b, four rows at a time.
func (f *QR) applyQTRows(b *Matrix, lo, hi int) {
	m := b.cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		f.applyQT4(b.data[i*m:(i+1)*m], b.data[(i+1)*m:(i+2)*m], b.data[(i+2)*m:(i+3)*m], b.data[(i+3)*m:(i+4)*m])
	}
	for ; i < hi; i++ {
		f.applyQT1(b.data[i*m : (i+1)*m])
	}
}

// applyQT4 applies every reflector to four right-hand sides at once. Per
// row, the reflector's dot product accumulates from the head in index order
// and skips exact zeros of the reflector, exactly as applyQT1 does.
func (f *QR) applyQT4(b0, b1, b2, b3 []float64) {
	m := f.v.cols
	for r, tau := range f.tau {
		if tau == 0 {
			continue
		}
		vt := f.v.data[r*m+r+1 : (r+1)*m]
		t0, t1, t2, t3 := b0[r+1:], b1[r+1:], b2[r+1:], b3[r+1:]
		t0, t1, t2, t3 = t0[:len(vt)], t1[:len(vt)], t2[:len(vt)], t3[:len(vt)]
		s0, s1, s2, s3 := tau*b0[r], tau*b1[r], tau*b2[r], tau*b3[r]
		for i, vi := range vt {
			if vi == 0 {
				continue
			}
			s0 += vi * t0[i]
			s1 += vi * t1[i]
			s2 += vi * t2[i]
			s3 += vi * t3[i]
		}
		s0, s1, s2, s3 = -s0/tau, -s1/tau, -s2/tau, -s3/tau
		b0[r] += s0 * tau
		b1[r] += s1 * tau
		b2[r] += s2 * tau
		b3[r] += s3 * tau
		for i, vi := range vt {
			if vi == 0 {
				continue
			}
			t0[i] += s0 * vi
			t1[i] += s1 * vi
			t2[i] += s2 * vi
			t3[i] += s3 * vi
		}
	}
}

// applyQT1 applies every reflector to one right-hand side.
func (f *QR) applyQT1(b []float64) {
	m := f.v.cols
	for r, tau := range f.tau {
		if tau == 0 {
			continue
		}
		vt := f.v.data[r*m+r+1 : (r+1)*m]
		t := b[r+1:]
		t = t[:len(vt)]
		s := tau * b[r]
		for i, vi := range vt {
			if vi == 0 {
				continue
			}
			s += vi * t[i]
		}
		s = -s / tau
		b[r] += s * tau
		for i, vi := range vt {
			if vi == 0 {
				continue
			}
			t[i] += s * vi
		}
	}
}

// R returns a fresh n-by-n copy of the upper-triangular factor.
func (f *QR) R() *Matrix {
	n, m := f.v.rows, f.v.cols
	r := Zeros(n, n)
	for c := 0; c < n; c++ {
		col := f.v.data[c*m : c*m+c+1]
		for i, x := range col {
			r.data[i*n+c] = x
		}
	}
	return r
}

// SolveRows returns the least-squares solutions of A x = b_i for every row
// b_i of b (each of length m), as the rows of a b.Rows()-by-n matrix: with
// the targets F as b, that is the K-by-Q coefficient matrix itself. It
// returns ErrSingular when R has a (numerically) zero diagonal entry.
func (f *QR) SolveRows(b *Matrix) (*Matrix, error) {
	w := b.Clone()
	f.ApplyQT(w)
	return SolveUpperRows(f.R(), w)
}

// SolveUpperRows back-substitutes R x = b_i[:n] for the n-by-n upper
// triangle of r and every row b_i of b (b.Cols() >= n), returning the
// solutions as the rows of a b.Rows()-by-n matrix, skipping exact zeros of
// R. Singularity is judged relative to the largest diagonal entry: it
// returns ErrSingular when some |r_ii| <= 1e-12·max_j |r_jj|, since a
// column that is (numerically) a combination of the others leaves a
// diagonal entry at roundoff level.
func SolveUpperRows(r, b *Matrix) (*Matrix, error) {
	n := r.rows
	if r.cols != n || b.cols < n {
		panic(fmt.Sprintf("mat: SolveUpperRows needs a square R and rows of at least its order, got %dx%d and %dx%d", r.rows, r.cols, b.rows, b.cols))
	}
	if UpperSingular(r) {
		return nil, ErrSingular
	}
	out := Zeros(b.rows, n)
	for k := 0; k < b.rows; k++ {
		x := out.data[k*n : (k+1)*n]
		w := b.data[k*b.cols : k*b.cols+n]
		for i := n - 1; i >= 0; i-- {
			ri := r.data[i*n : (i+1)*n]
			s := w[i]
			for c := i + 1; c < n; c++ {
				if ric := ri[c]; ric != 0 {
					s -= ric * x[c]
				}
			}
			x[i] = s / ri[i]
		}
	}
	return out, nil
}

// UpperSingular reports whether the square upper-triangular r has a
// diagonal entry |r_ii| <= 1e-12·max_j |r_jj|, the singularity test every
// solve with R applies.
func UpperSingular(r *Matrix) bool {
	n := r.rows
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		if a := math.Abs(r.data[i*n+i]); a > maxDiag {
			maxDiag = a
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(r.data[i*n+i]) <= 1e-12*maxDiag {
			return true
		}
	}
	return false
}
