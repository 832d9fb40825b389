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
// sequential forward and backward sweeps in row order, and one PCG, the
// blocked multi-RHS BatchCGSolver: it solves one or many right-hand sides
// through one matrix and factor traversal per iteration, four columns per
// vector in bitwise-exact AVX2 kernels where the CPU has them. Its SpMV,
// dots and vector updates run row-partitioned on the mat worker pool;
// reverse Cuthill–McKee reordering (RCM/PermuteSym) keeps their gathers
// cache-local. Everything preserves the house invariant: results are
// bitwise identical across worker counts and with or without the kernels,
// and the solve hot loops allocate nothing. The tests keep a serial
// single-RHS PCG as the oracle of the batch solver's per-column arithmetic.
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

// CGOptions configures NewBatchCGSolver and BatchCGSolver.WithMatrix.
type CGOptions struct {
	Tol     float64 // relative residual target; default 1e-10
	MaxIter int     // default 10 * n
	// Precond is the IC factor of the matrix to precondition with: pass
	// NewICModified(a, ω) for modified IC. nil builds plain IC(0),
	// NewIC(a).
	Precond *IC
	// Workers bounds the parallel shares of the SpMV, reduction and vector
	// kernels in the solve; the preconditioner sweeps are sequential. 0
	// means the mat pool default (SetParallelism / GOMAXPROCS); 1 forces
	// serial execution. Results are bitwise identical for every setting.
	Workers int
}
