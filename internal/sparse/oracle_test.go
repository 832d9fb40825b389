package sparse

import (
	"fmt"
	"math"
)

// The serial single-RHS PCG below is the oracle of BatchCGSolver's
// equivalence contract: per column, SolveBatch must reproduce its solution
// and iteration count bitwise. It runs the batch solver's arithmetic one
// column at a time with the plainest loops — MulVecTo's k-ascending SpMV,
// dotBlock-blocked dot products combined serially in block order, and the
// IC sweeps of Apply — so the batch kernels, their interleaving and their
// worker shares are checked against code that has none of them.

// Preconditioner approximates A⁻¹ for the oracle: Apply writes z = M⁻¹·r
// without aliasing z and r.
type Preconditioner interface {
	Apply(z, r []float64)
}

// CGSolver is the oracle PCG for one matrix, with its workspace. It
// allocates nothing per Solve.
type CGSolver struct {
	a           *CSR
	pre         Preconditioner
	tol         float64
	maxIter     int
	r, z, p, ap []float64
}

// NewCGSolver prepares the oracle for the SPD matrix a with opt's Tol and
// MaxIter defaults as NewBatchCGSolver applies them. It preconditions with
// pre, or when pre is nil with opt.Precond, or with plain IC(0) when that
// is nil too; opt.Workers is ignored.
func NewCGSolver(a *CSR, opt CGOptions, pre Preconditioner) (*CGSolver, error) {
	n := a.rows
	if pre == nil && opt.Precond != nil {
		pre = opt.Precond
	}
	if pre == nil {
		ic, err := NewIC(a)
		if err != nil {
			return nil, err
		}
		pre = ic
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	return &CGSolver{
		a: a, pre: pre, tol: tol, maxIter: maxIter,
		r: make([]float64, n), z: make([]float64, n),
		p: make([]float64, n), ap: make([]float64, n),
	}, nil
}

// Solve solves A x = b in place, x holding the warm start on entry, and
// returns the iteration count, with SolveBatch's per-column rules: a zero
// right-hand side gives x = 0 at iteration 0, and a right-hand side or
// initial residual whose norm is NaN or infinite fails at iteration 0 with
// x untouched.
func (s *CGSolver) Solve(x, b []float64) (int, error) {
	bnorm := math.Sqrt(blockedDot(b, b))
	if notFinite(bnorm) {
		return 0, fmt.Errorf("%w: right-hand side norm %g", errNotFinite, bnorm)
	}
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return 0, nil
	}
	r, z, p, ap := s.r, s.z, s.p, s.ap
	s.a.MulVecTo(r, x)
	for i, bv := range b {
		r[i] = bv - r[i]
	}
	rnorm := math.Sqrt(blockedDot(r, r))
	if notFinite(rnorm) {
		return 0, fmt.Errorf("%w: initial residual norm %g", errNotFinite, rnorm)
	}
	if rnorm <= s.tol*bnorm {
		return 0, nil
	}
	s.pre.Apply(z, r)
	copy(p, z)
	rz := blockedDot(r, z)
	for it := 1; it <= s.maxIter; it++ {
		s.a.MulVecTo(ap, p)
		pap := blockedDot(p, ap)
		if pap <= 0 {
			return it, fmt.Errorf("sparse: pᵀAp = %g <= 0; matrix not SPD", pap)
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		if math.Sqrt(blockedDot(r, r)) <= s.tol*bnorm {
			return it, nil
		}
		s.pre.Apply(z, r)
		rzNew := blockedDot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i, zv := range z {
			p[i] = zv + beta*p[i]
		}
	}
	return s.maxIter, ErrNoConvergence
}

// SolveCG solves A x = b with the oracle from x0 (nil means zero) and
// returns the solution and the iteration count.
func SolveCG(a *CSR, b, x0 []float64, opt CGOptions) ([]float64, int, error) {
	s, err := NewCGSolver(a, opt, nil)
	if err != nil {
		return nil, 0, err
	}
	x := make([]float64, len(b))
	if x0 != nil {
		copy(x, x0)
	}
	it, err := s.Solve(x, b)
	if err != nil {
		return nil, it, err
	}
	return x, it, nil
}

// blockedDot returns x·y summed in dotBlock blocks, each from +0 in index
// order, and the block sums added serially in block order.
func blockedDot(x, y []float64) float64 {
	total := 0.0
	for start := 0; start < len(x); start += dotBlock {
		end := min(start+dotBlock, len(x))
		s := 0.0
		for i := start; i < end; i++ {
			s += x[i] * y[i]
		}
		total += s
	}
	return total
}

// Apply solves L·Lᵀ·z = r by one forward sweep over rows 0…n−1 and one
// backward sweep over rows n−1…0, one column at a time: the scalar sweeps
// applyBatch runs for many interleaved columns.
func (m *IC) Apply(z, r []float64) {
	rowPtr, colIdx, val := m.l.rowPtr, m.l.colIdx, m.l.val
	for i := range z {
		start, end := rowPtr[i], rowPtr[i+1]-1 // diagonal is last
		s := r[i]
		for k := start; k < end; k++ {
			s -= val[k] * z[colIdx[k]]
		}
		z[i] = s / val[end]
	}
	rowPtr, colIdx, val = m.lt.rowPtr, m.lt.colIdx, m.lt.val
	for i := len(z) - 1; i >= 0; i-- {
		start, end := rowPtr[i], rowPtr[i+1] // diagonal is first
		s := z[i]
		for k := start + 1; k < end; k++ {
			s -= val[k] * z[colIdx[k]]
		}
		z[i] = s / val[start]
	}
}
