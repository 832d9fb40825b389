// Package sparse implements compressed sparse row matrices and a parallel
// preconditioned conjugate-gradient engine.
//
// It is the production transient-solve path for large power grids: past a
// half-bandwidth of ~256 the banded Cholesky in package banded stops scaling
// (O(n·bw²) factor time, O(n·bw) memory — ~8.6 GB at a 1024×1024 mesh), and
// pdn's Auto backend routes every wider or larger mesh here. The banded
// factor remains the fast path for narrow meshes and the independent
// cross-check oracle in tests; this package also handles meshes with
// irregular connectivity (extra via stitching, cut-outs) whose bandwidth
// would blow up any banded factor.
//
// The engine has one preconditioner, incomplete Cholesky (IC: modified
// IC(0), or plain IC(0) where the modified factor breaks down), applied by
// sequential forward and backward sweeps in row order. Everything else runs
// on the mat worker pool: row-partitioned SpMV and fused vector kernels,
// reverse Cuthill–McKee reordering (RCM/PermuteSym) for cache locality, and
// a blocked multi-RHS PCG (BatchCGSolver) that steps many transients
// through one matrix and factor traversal, four columns per vector in
// bitwise-exact AVX2 kernels where the CPU has them. Everything preserves
// the house invariant: results are bitwise identical across worker counts
// and with or without the kernels, and the solve hot loops allocate
// nothing.
package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when CG fails to reach the requested tolerance
// within the iteration budget.
var ErrNoConvergence = errors.New("sparse: conjugate gradient did not converge")

// errNotFinite reports a right-hand side or an initial residual whose norm
// is NaN or +Inf. PCG cannot recover from either: a NaN never meets the
// tolerance, so the solve would spend its whole budget, and an infinite
// norm passes the tolerance test at once with the warm start untouched.
var errNotFinite = errors.New("sparse: input is not finite")

// notFinite reports whether the norm v is NaN or +Inf.
func notFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 1) }

// CSR is a compressed sparse row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	val        []float64
}

// NewCSR wraps pre-built CSR arrays without copying: pdn assembles its
// mesh stencils (up to million-node grids) straight into them. Column
// indices must be strictly ascending within each row; the structure is
// validated once and panics on malformed input since that is a programming
// error, matching the package's style.
func NewCSR(rows, cols int, rowPtr, colIdx []int, val []float64) *CSR {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	if len(rowPtr) != rows+1 || rowPtr[0] != 0 {
		panic(fmt.Sprintf("sparse: NewCSR rowPtr length %d, want %d starting at 0", len(rowPtr), rows+1))
	}
	if len(colIdx) != rowPtr[rows] || len(val) != rowPtr[rows] {
		panic(fmt.Sprintf("sparse: NewCSR %d cols / %d vals, rowPtr ends at %d", len(colIdx), len(val), rowPtr[rows]))
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i+1] < rowPtr[i] {
			panic(fmt.Sprintf("sparse: NewCSR rowPtr decreases at row %d", i))
		}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if colIdx[k] < 0 || colIdx[k] >= cols {
				panic(fmt.Sprintf("sparse: NewCSR column %d out of range at row %d", colIdx[k], i))
			}
			if k > rowPtr[i] && colIdx[k] <= colIdx[k-1] {
				panic(fmt.Sprintf("sparse: NewCSR columns not strictly ascending in row %d", i))
			}
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// Rows returns the number of rows.
func (c *CSR) Rows() int { return c.rows }

// Cols returns the number of columns.
func (c *CSR) Cols() int { return c.cols }

// Preconditioner approximates A⁻¹ for conjugate gradient: Apply writes
// z = M⁻¹·r. Implementations must not alias z and r and must not allocate,
// so solvers built on them stay allocation-free in steady state.
type Preconditioner interface {
	Apply(z, r []float64)
}

// CGOptions configures SolveCG and NewCGSolver.
type CGOptions struct {
	Tol     float64 // relative residual target; default 1e-10
	MaxIter int     // default 10 * n
	// Precond overrides the default plain IC(0) preconditioner, NewIC(a):
	// pass NewICModified(a, ω) for modified IC. NewBatchCGSolver accepts
	// only an *IC.
	Precond Preconditioner
	// Workers bounds the parallel shares of the SpMV, reduction and vector
	// kernels in the solve; the preconditioner sweeps are sequential. 0
	// means the mat pool default (SetParallelism / GOMAXPROCS); 1 forces
	// serial execution. Results are bitwise identical for every setting.
	Workers int
}

// CGSolver is a reusable preconditioned conjugate-gradient solver: all
// workspace — including the parallel kernel stages — is allocated once at
// construction so repeated Solve calls (the transient-stepping hot loop) run
// with zero allocations. A CGSolver is not safe for concurrent use.
type CGSolver struct {
	a       *CSR
	pre     Preconditioner
	tol     float64
	maxIter int
	o       *ops
	r, z    []float64
	p, ap   []float64
}

// NewCGSolver prepares a solver for the SPD matrix a. With opt.Precond nil
// it builds a plain IC(0) preconditioner, which fails on a non-positive
// pivot.
func NewCGSolver(a *CSR, opt CGOptions) (*CGSolver, error) {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("sparse: CG needs square matrix, got %dx%d", a.rows, a.cols))
	}
	pre := opt.Precond
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
	s := &CGSolver{
		a: a, pre: pre, tol: tol, maxIter: maxIter,
		o: newOps(n, opt.Workers),
		r: make([]float64, n), z: make([]float64, n),
		p: make([]float64, n), ap: make([]float64, n),
	}
	return s, nil
}

// Solve solves A x = b in place: x holds the initial guess on entry (the
// warm start) and the solution on return. It returns the iteration count
// and allocates nothing. A right-hand side or initial residual whose norm
// is NaN or infinite fails at iteration 0 with x untouched. Every kernel but the preconditioner runs on the
// worker team; the result is bitwise identical for every worker count.
func (s *CGSolver) Solve(x, b []float64) (int, error) {
	n := s.a.rows
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("sparse: Solve lengths x=%d b=%d, want %d", len(x), len(b), n))
	}
	bnorm := math.Sqrt(s.o.dot(b, b))
	if notFinite(bnorm) {
		return 0, fmt.Errorf("%w: right-hand side norm %g", errNotFinite, bnorm)
	}
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return 0, nil
	}
	s.o.mulVec(s.a, s.r, x)
	s.o.sub(s.r, b)
	rnorm := math.Sqrt(s.o.dot(s.r, s.r))
	if notFinite(rnorm) {
		return 0, fmt.Errorf("%w: initial residual norm %g", errNotFinite, rnorm)
	}
	if rnorm <= s.tol*bnorm {
		return 0, nil // warm start already within tolerance
	}
	s.pre.Apply(s.z, s.r)
	copy(s.p, s.z)
	rz := s.o.dot(s.r, s.z)
	for it := 1; it <= s.maxIter; it++ {
		s.o.mulVec(s.a, s.ap, s.p)
		pap := s.o.dot(s.p, s.ap)
		if pap <= 0 {
			return it, fmt.Errorf("sparse: pᵀAp = %g <= 0; matrix not SPD", pap)
		}
		alpha := rz / pap
		s.o.axpy2(alpha, x, s.p, s.r, s.ap)
		if math.Sqrt(s.o.dot(s.r, s.r)) <= s.tol*bnorm {
			return it, nil
		}
		s.pre.Apply(s.z, s.r)
		rzNew := s.o.dot(s.r, s.z)
		beta := rzNew / rz
		rz = rzNew
		s.o.xpby(s.p, s.z, beta)
	}
	return s.maxIter, ErrNoConvergence
}

// SolveCG solves the symmetric positive definite system A x = b with
// preconditioned conjugate gradient (plain IC(0) unless opt.Precond says
// otherwise), starting from x0 (nil means zero). It returns the solution
// and the iteration count. One-shot convenience over CGSolver.
func SolveCG(a *CSR, b, x0 []float64, opt CGOptions) ([]float64, int, error) {
	n := a.rows
	if len(b) != n {
		panic(fmt.Sprintf("sparse: SolveCG rhs length %d, want %d", len(b), n))
	}
	s, err := NewCGSolver(a, opt)
	if err != nil {
		return nil, 0, err
	}
	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	}
	it, err := s.Solve(x, b)
	if err != nil {
		return nil, it, err
	}
	return x, it, nil
}
