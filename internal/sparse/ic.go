package sparse

import (
	"fmt"
	"math"
	"sort"
)

// IC is a zero-fill incomplete Cholesky preconditioner: A ≈ L·Lᵀ with L
// restricted to the sparsity pattern of A's lower triangle. For M-matrices
// — the power-grid conductance systems this package targets — the
// factorization is guaranteed to exist (Meijerink–van der Vorst), and it
// cuts PCG iteration counts well below diagonal scaling because it
// captures the neighbor coupling, not just the diagonal.
//
// NewICModified builds the modified variant (MIC): fill that IC(0) would
// discard is instead subtracted from the two affected diagonals, which
// preserves row sums and improves the preconditioned condition number of
// mesh Laplacians from O(h⁻²) to O(h⁻¹) — the difference between hundreds
// and tens of CG iterations on fine power grids.
type IC struct {
	n  int
	l  *CSR // lower triangle including diagonal; diagonal last in each row
	lt *CSR // Lᵀ; diagonal first in each row
}

// NewIC factors the symmetric matrix a into a plain IC(0) preconditioner.
// It fails if a row has no diagonal entry or a pivot comes out
// non-positive, which signals the matrix is not an M-matrix-like SPD
// system.
func NewIC(a *CSR) (*IC, error) { return newIC(a, 0) }

// NewICModified factors a into a relaxed modified incomplete Cholesky
// preconditioner: dropped fill is subtracted from the diagonals scaled by
// omega ∈ [0, 1]. omega = 0 is plain IC(0); omega = 1 preserves row sums
// exactly. A breakdown (non-positive pivot) is returned as an error; pdn
// builds both its step and its DC system at omega = 1 and falls back to
// plain IC(0) when that happens.
func NewICModified(a *CSR, omega float64) (*IC, error) {
	if omega < 0 || omega > 1 {
		return nil, fmt.Errorf("sparse: NewICModified omega %g outside [0, 1]", omega)
	}
	return newIC(a, omega)
}

// newIC runs right-looking (submatrix) incomplete Cholesky on the lower
// triangle of a, which must be structurally symmetric. After eliminating
// column k, every update l_ij -= l_ik·l_jk with (i, j) inside the pattern
// is applied; updates outside it are dropped (IC) or routed to the
// diagonals of rows i and j (MIC, scaled by omega).
func newIC(a *CSR, omega float64) (*IC, error) {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("sparse: NewIC needs square matrix, got %dx%d", a.rows, a.cols))
	}
	// Extract the lower-triangular pattern (columns ≤ i) with a's values.
	nnz := 0
	for i := 0; i < n; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if a.colIdx[k] <= i {
				nnz++
			}
		}
	}
	l := &CSR{
		rows: n, cols: n,
		rowPtr: make([]int, n+1),
		colIdx: make([]int, 0, nnz),
		val:    make([]float64, 0, nnz),
	}
	for i := 0; i < n; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if a.colIdx[k] <= i {
				l.colIdx = append(l.colIdx, a.colIdx[k])
				l.val = append(l.val, a.val[k])
			}
		}
		l.rowPtr[i+1] = len(l.colIdx)
		if end := l.rowPtr[i+1]; end == l.rowPtr[i] || l.colIdx[end-1] != i {
			return nil, fmt.Errorf("sparse: NewIC: row %d has no diagonal entry", i)
		}
	}
	diagIdx := func(i int) int { return l.rowPtr[i+1] - 1 }
	// below[k] enumerates rows i > k with (i, k) in the pattern; by
	// structural symmetry that is exactly the columns > k of a's row k.
	var rows []int
	var liks []float64
	var idxs []int
	for k := 0; k < n; k++ {
		dk := l.val[diagIdx(k)]
		if dk <= 0 {
			return nil, fmt.Errorf("sparse: NewIC: non-positive pivot %g at row %d", dk, k)
		}
		dk = math.Sqrt(dk)
		l.val[diagIdx(k)] = dk
		rows, liks, idxs = rows[:0], liks[:0], idxs[:0]
		for kk := a.rowPtr[k]; kk < a.rowPtr[k+1]; kk++ {
			i := a.colIdx[kk]
			if i <= k {
				continue
			}
			idx := locate(l, i, k)
			if idx < 0 {
				return nil, fmt.Errorf("sparse: NewIC: pattern not symmetric at (%d,%d)", i, k)
			}
			l.val[idx] /= dk
			rows = append(rows, i)
			liks = append(liks, l.val[idx])
			idxs = append(idxs, idx)
		}
		for ai, i := range rows {
			lik := liks[ai]
			for bi := 0; bi <= ai; bi++ {
				j := rows[bi]
				v := lik * liks[bi]
				switch {
				case j == i:
					l.val[diagIdx(i)] -= v
				default:
					if idx := locate(l, i, j); idx >= 0 {
						l.val[idx] -= v
					} else if omega > 0 {
						// MIC: the full-matrix update would also hit the
						// symmetric entry (j, i), so both row sums lose v.
						l.val[diagIdx(i)] -= omega * v
						l.val[diagIdx(j)] -= omega * v
					}
				}
			}
		}
	}
	return &IC{n: n, l: l, lt: transposeCSR(l)}, nil
}

// locate returns the index of (i, j) inside l's storage, or -1.
func locate(l *CSR, i, j int) int {
	lo, hi := l.rowPtr[i], l.rowPtr[i+1]
	k := lo + sort.SearchInts(l.colIdx[lo:hi], j)
	if k < hi && l.colIdx[k] == j {
		return k
	}
	return -1
}

// transposeCSR returns mᵀ with columns ascending in every row.
func transposeCSR(m *CSR) *CSR {
	t := &CSR{
		rows: m.cols, cols: m.rows,
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int, len(m.val)),
		val:    make([]float64, len(m.val)),
	}
	for _, j := range m.colIdx {
		t.rowPtr[j+1]++
	}
	for i := 0; i < t.rows; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	next := make([]int, t.rows)
	copy(next, t.rowPtr[:t.rows])
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j := m.colIdx[k]
			t.colIdx[next[j]] = i
			t.val[next[j]] = m.val[k]
			next[j]++
		}
	}
	return t
}

// applyBatch solves L·Lᵀ·z = r for nrhs interleaved columns (element
// (i, c) at z[i*nrhs+c]), the preconditioner step of BatchCGSolver: one
// forward sweep over rows 0…n−1 and one backward sweep over rows n−1…0,
// using z as the only workspace, each row's substitution running for every
// column while the factor row is hot. Per column the operations run in
// exactly the order of the scalar sweeps of the tests' oracle, on the AVX2
// kernels when vec is set and on their Go twins otherwise. It allocates
// nothing.
//
// The sweeps are sequential. A level schedule could solve independent
// rows concurrently, but under the RCM ordering pdn uses every level is a
// contiguous row range, so it visits rows in this same order, and at two
// cores it measured slower than these plain sweeps (DESIGN.md §15).
func (m *IC) applyBatch(z, r []float64, nrhs int, vec bool) {
	l, lt := m.l, m.lt
	if vec {
		icForwardAVX2(z, r, l.rowPtr, l.colIdx, l.val, nrhs, 0, m.n)
		icBackwardAVX2(z, lt.rowPtr, lt.colIdx, lt.val, nrhs, 0, m.n)
		return
	}
	icForwardGo(z, r, l.rowPtr, l.colIdx, l.val, nrhs, 0, m.n)
	icBackwardGo(z, lt.rowPtr, lt.colIdx, lt.val, nrhs, 0, m.n)
}

// icForwardGo solves rows lo, …, hi−1 of L·z = r for the m interleaved
// columns, L's diagonal last in each row: z_i = (r_i − Σ l_ik·z_k) / l_ii,
// subtracting in k order. It is the portable path and the oracle of
// icForwardAVX2.
func icForwardGo(z, r []float64, rowPtr, colIdx []int, val []float64, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		zi := z[i*m : i*m+m]
		copy(zi, r[i*m:i*m+m])
		start, end := rowPtr[i], rowPtr[i+1]-1 // diagonal is last
		vals := val[start:end]
		for k, j := range colIdx[start:end] {
			v := vals[k]
			zj := z[j*m:][:len(zi)]
			for c, zv := range zj {
				zi[c] -= v * zv
			}
		}
		d := val[end]
		for c := range zi {
			zi[c] /= d
		}
	}
}

// icBackwardGo solves rows hi−1, …, lo of Lᵀ·z = z in place for the m
// interleaved columns, Lᵀ's diagonal first in each row. It is the portable
// path and the oracle of icBackwardAVX2.
func icBackwardGo(z []float64, rowPtr, colIdx []int, val []float64, m, lo, hi int) {
	for i := hi - 1; i >= lo; i-- {
		zi := z[i*m : i*m+m]
		start, end := rowPtr[i], rowPtr[i+1] // diagonal is first
		vals := val[start+1 : end]
		for k, j := range colIdx[start+1 : end] {
			v := vals[k]
			zj := z[j*m:][:len(zi)]
			for c, zv := range zj {
				zi[c] -= v * zv
			}
		}
		d := val[start]
		for c := range zi {
			zi[c] /= d
		}
	}
}

// Precond is the type of the preconditioner fields that pdn.SimOptions and
// experiments.Config still carry. The engine has one preconditioner — IC,
// modified IC(0) with a plain IC(0) fallback — so PrecondAuto is the only
// value and those fields are ignored.
type Precond int

// PrecondAuto is the zero Precond.
const PrecondAuto Precond = 0
