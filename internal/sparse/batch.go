package sparse

import (
	"fmt"
	"math"

	"voltsense/internal/simd"
)

// Blocked multi-RHS preconditioned conjugate gradient. Transient stepping
// across a benchmark suite solves the SAME matrix against many right-hand
// sides per time step. BatchCGSolver interleaves nrhs systems — element
// (i, c) lives at x[i*nrhs+c] — so each traversal of the matrix and the IC
// factor serves every RHS at once: the row loop, the index and value loads
// and the gathers of row j are shared nrhs ways while the per-column
// arithmetic stays untouched. That arithmetic, not memory traffic, is the
// cost on the meshes pdn steps: on the 288×24 scan mesh (6,912 rows; a
// 10-column workspace is 0.55 MB and stays in cache) the scalar Go sweeps
// took about 42 ns per row per IC sweep. So on AVX2 every stage and both
// sweeps run as assembly kernels, four columns per vector
// (kernels_amd64.s).
//
// Equivalence contract: per column, the floating-point operations execute
// in exactly the order of a serial single-RHS PCG on that column alone, the
// oracle the tests keep (CGSolver in oracle_test.go): the same k-ascending
// SpMV accumulation, the same dotBlock-blocked reductions combined serially
// in block order, the same update sequence. Columns that converge are
// frozen (no further state updates) exactly where that solve would have
// returned. SolveBatch is therefore bitwise identical to looping the
// oracle over the columns, at any width and worker count. Tests assert
// this, not just a tolerance.

// BatchCGSolver solves A·X = B for a fixed column count with one matrix
// traversal per PCG iteration. It is the engine's only PCG: at width 1 it
// solves a single system, and WithMatrix gives a second matrix of the same
// order a solver over the same workspace (pdn's step and DC systems).
// Workspace — including every parallel stage closure — is allocated at
// construction; SolveBatch allocates nothing. Not safe for concurrent use.
type BatchCGSolver struct {
	a       *CSR
	ic      *IC
	tol     float64
	maxIter int

	t team
	*batchWork

	// vec, simd.AVX2() at construction, runs the stages and the IC sweeps
	// as AVX2 kernels; the benchmarks of their Go twins clear it.
	vec bool

	// staged operands for the prebuilt stages
	sx, sy, sz, sw []float64

	fnSpMV, fnDot, fnAxpy2, fnXpBY, fnSub func(lo, hi int)
}

// batchWork is a solver's workspace for n rows and m columns, which
// WithMatrix shares between solvers of the same order and width.
type batchWork struct {
	n, m int
	sums []float64 // numDotBlocks(n) * m reduction blocks

	// interleaved n×m workspaces
	r, z, p, ap []float64

	// per-column state
	bnorm, rn2, rz, pap, sc []float64
	mask                    []uint64 // activeMask of active, for the AVX2 blends
	active                  []bool
	iters                   []int
}

// NewBatchCGSolver prepares a solver for nrhs simultaneous systems on the
// SPD matrix a, preconditioned by opt.Precond, or by plain IC(0) when that
// is nil: the IC sweeps traverse the factor once for all columns.
func NewBatchCGSolver(a *CSR, nrhs int, opt CGOptions) (*BatchCGSolver, error) {
	if nrhs < 1 {
		panic(fmt.Sprintf("sparse: batch CG needs nrhs >= 1, got %d", nrhs))
	}
	n, m := a.rows, nrhs
	w := &batchWork{
		n: n, m: m,
		sums: make([]float64, numDotBlocks(n)*m),
		r:    make([]float64, n*m), z: make([]float64, n*m),
		p: make([]float64, n*m), ap: make([]float64, n*m),
		bnorm: make([]float64, m), rn2: make([]float64, m),
		rz: make([]float64, m), pap: make([]float64, m),
		sc: make([]float64, m), mask: make([]uint64, m),
		active: make([]bool, m), iters: make([]int, m),
	}
	return newBatchCGSolver(a, opt, opt.Workers, w)
}

// WithMatrix returns a solver for the SPD matrix a, of the same order as
// s's, that works in s's workspace: it has s's width and worker bound
// (opt.Workers is ignored) and shares every n×nrhs buffer and the
// per-column state with s, so the two must never solve at the same time.
// Tol, MaxIter and Precond mean what they do for NewBatchCGSolver.
func (s *BatchCGSolver) WithMatrix(a *CSR, opt CGOptions) (*BatchCGSolver, error) {
	if a.rows != s.n {
		panic(fmt.Sprintf("sparse: WithMatrix order %d, want %d", a.rows, s.n))
	}
	return newBatchCGSolver(a, opt, s.t.workers, s.batchWork)
}

// newBatchCGSolver builds a solver for a over the workspace w, its kernels
// bounded by workers.
func newBatchCGSolver(a *CSR, opt CGOptions, workers int, w *batchWork) (*BatchCGSolver, error) {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("sparse: batch CG needs square matrix, got %dx%d", a.rows, a.cols))
	}
	ic := opt.Precond
	if ic == nil {
		var err error
		if ic, err = NewIC(a); err != nil {
			return nil, err
		}
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	s := &BatchCGSolver{a: a, ic: ic, tol: tol, maxIter: maxIter, batchWork: w, vec: simd.AVX2()}
	s.t.init(workers)
	s.buildStages()
	return s, nil
}

// buildStages prebuilds the interleaved parallel kernels. Partitioning is
// by row (SpMV, elementwise) or by reduction block (dots): one writer per
// output element, per-column operation order fixed — bitwise identical
// across worker counts (parallel.go). Each stage runs its AVX2 kernel when
// vec is set and its Go twin otherwise; both give every column the same
// bits.
func (s *BatchCGSolver) buildStages() {
	m, n := s.m, s.n
	rowPtr, colIdx, val := s.a.rowPtr, s.a.colIdx, s.a.val
	s.fnSpMV = func(lo, hi int) {
		if s.vec {
			batchSpMVAVX2(s.sy, s.sx, rowPtr, colIdx, val, m, lo, hi)
			return
		}
		batchSpMVGo(s.sy, s.sx, rowPtr, colIdx, val, m, lo, hi)
	}
	s.fnDot = func(lo, hi int) {
		if s.vec {
			batchDotAVX2(s.sums, s.sx, s.sy, m, n, lo, hi)
			return
		}
		batchDotGo(s.sums, s.sx, s.sy, m, n, lo, hi)
	}
	s.fnAxpy2 = func(lo, hi int) {
		if s.vec {
			batchAxpy2AVX2(s.sx, s.sz, s.sy, s.sw, s.sc, s.mask, m, lo, hi)
			return
		}
		batchAxpy2Go(s.sx, s.sz, s.sy, s.sw, s.sc, s.active, m, lo, hi)
	}
	s.fnXpBY = func(lo, hi int) {
		if s.vec {
			batchXpBYAVX2(s.sx, s.sy, s.sc, s.mask, m, lo, hi)
			return
		}
		batchXpBYGo(s.sx, s.sy, s.sc, s.active, m, lo, hi)
	}
	s.fnSub = func(lo, hi int) {
		if s.vec {
			batchSubAVX2(s.sx, s.sy, m, lo, hi)
			return
		}
		batchSubGo(s.sx, s.sy, m, lo, hi)
	}
}

// The Go twins below are the portable path and the oracles of the AVX2
// kernels in kernels_amd64.s, which take the same arguments (masked updates
// take activeMask's mask in place of active). Each slices a row before its
// inner loop, so the stores cannot force the operands to be reloaded.

// batchSpMVGo computes rows [lo, hi) of Y = A·X for m interleaved columns:
// every element starts at +0 and adds its row's products in k order.
func batchSpMVGo(y, x []float64, rowPtr, colIdx []int, val []float64, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		yi := y[i*m : i*m+m]
		for c := range yi {
			yi[c] = 0
		}
		start, end := rowPtr[i], rowPtr[i+1]
		vals := val[start:end]
		for k, j := range colIdx[start:end] {
			v := vals[k]
			xj := x[j*m:][:len(yi)]
			for c, xv := range xj {
				yi[c] += v * xv
			}
		}
	}
}

// batchDotGo writes the partial dot products of reduction blocks [lo, hi)
// of the m interleaved columns of x and y, each block's m sums from +0 in
// row order, to sums[b*m : b*m+m]; n is the row count.
func batchDotGo(sums, x, y []float64, m, n, lo, hi int) {
	for b := lo; b < hi; b++ {
		start := b * dotBlock
		end := min(start+dotBlock, n)
		sb := sums[b*m : b*m+m]
		for c := range sb {
			sb[c] = 0
		}
		for i := start; i < end; i++ {
			xi := x[i*m:][:len(sb)]
			yi := y[i*m:][:len(sb)]
			for c, xv := range xi {
				sb[c] += xv * yi[c]
			}
		}
	}
}

// batchAxpy2Go performs the CG update x += sc·z, y -= sc·w on rows [lo, hi)
// of every active column; frozen columns are not touched.
func batchAxpy2Go(x, z, y, w, sc []float64, active []bool, m, lo, hi int) {
	sc = sc[:len(active)]
	for i := lo; i < hi; i++ {
		base := i * m
		xi, yi := x[base:][:len(active)], y[base:][:len(active)]
		zi, wi := z[base:][:len(active)], w[base:][:len(active)]
		for c, on := range active {
			if !on {
				continue
			}
			a := sc[c]
			xi[c] += a * zi[c]
			yi[c] -= a * wi[c]
		}
	}
}

// batchXpBYGo performs x = y + sc·x on rows [lo, hi) of every active
// column; frozen columns are not touched.
func batchXpBYGo(x, y, sc []float64, active []bool, m, lo, hi int) {
	sc = sc[:len(active)]
	for i := lo; i < hi; i++ {
		base := i * m
		xi, yi := x[base:][:len(active)], y[base:][:len(active)]
		for c, on := range active {
			if !on {
				continue
			}
			xi[c] = yi[c] + sc[c]*xi[c]
		}
	}
}

// batchSubGo performs x = y − x on rows [lo, hi) of every column.
func batchSubGo(x, y []float64, m, lo, hi int) {
	x, y = x[lo*m:hi*m], y[lo*m:hi*m]
	for i, yv := range y {
		x[i] = yv - x[i]
	}
}

// activeMask sets mask[c] to all ones where active[c] holds and to zero
// elsewhere: the blend mask of the AVX2 masked updates, whose sign bit
// picks the updated value.
func activeMask(mask []uint64, active []bool) {
	for c, on := range active {
		mask[c] = 0
		if on {
			mask[c] = ^uint64(0)
		}
	}
}

// batchRowChunk is the minimum rows per share for interleaved kernels: each
// row carries m elements, so the threshold scales down with the width.
func (s *BatchCGSolver) batchRowChunk() int {
	c := vecChunk / s.m
	if c < 1 {
		c = 1
	}
	return c
}

func (s *BatchCGSolver) bMulVec(y, x []float64) {
	s.sy, s.sx = y, x
	rc := rowChunk / s.m
	if rc < 1 {
		rc = 1
	}
	s.t.run(s.n, rc, s.fnSpMV)
}

// bDot computes out[c] = Σ_i x[i·m+c]·y[i·m+c] with the dotBlock-blocked
// deterministic reduction per column.
func (s *BatchCGSolver) bDot(x, y, out []float64) {
	s.sx, s.sy = x, y
	nb := numDotBlocks(s.n)
	s.t.run(nb, dotBlockChunk, s.fnDot)
	m := s.m
	for c := 0; c < m; c++ {
		total := 0.0
		for b := 0; b < nb; b++ {
			total += s.sums[b*m+c]
		}
		out[c] = total
	}
}

func (s *BatchCGSolver) bAxpy2(alpha []float64, x, p, r, ap []float64) {
	copy(s.sc, alpha)
	activeMask(s.mask, s.active)
	s.sx, s.sz, s.sy, s.sw = x, p, r, ap
	s.t.run(s.n, s.batchRowChunk(), s.fnAxpy2)
}

func (s *BatchCGSolver) bXpBY(p, z, beta []float64) {
	copy(s.sc, beta)
	activeMask(s.mask, s.active)
	s.sx, s.sy = p, z
	s.t.run(s.n, s.batchRowChunk(), s.fnXpBY)
}

func (s *BatchCGSolver) bSub(r, b []float64) {
	s.sx, s.sy = r, b
	s.t.run(s.n, s.batchRowChunk(), s.fnSub)
}

// SolveBatch solves A·X = B for every column in place: x and b are
// interleaved n×nrhs buffers (element (i, c) at i*nrhs+c), x holding the
// warm starts on entry and the solutions on return. It returns per-column
// iteration counts (the slice is reused by the next call) and the first
// error: ErrNoConvergence if any column ran out of iterations, the pᵀAp
// breakdown error, or the not-finite error of a column whose right-hand
// side or initial residual norm is NaN or infinite, which stops at iteration 0
// with its warm start untouched. A column that fails is frozen where the
// equivalent single-RHS solve would have stopped; the remaining columns
// still finish with the same bits. Allocates nothing.
func (s *BatchCGSolver) SolveBatch(x, b []float64) ([]int, error) {
	n, m := s.n, s.m
	if len(x) != n*m || len(b) != n*m {
		panic(fmt.Sprintf("sparse: SolveBatch lengths x=%d b=%d, want %d", len(x), len(b), n*m))
	}
	var firstErr error
	s.bDot(b, b, s.rn2)
	remaining := 0
	for c := 0; c < m; c++ {
		s.bnorm[c] = math.Sqrt(s.rn2[c])
		s.iters[c] = 0
		s.active[c] = false
		switch {
		case notFinite(s.bnorm[c]):
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: column %d: right-hand side norm %g", errNotFinite, c, s.bnorm[c])
			}
		case s.bnorm[c] == 0:
			for i := 0; i < n; i++ {
				x[i*m+c] = 0
			}
		default:
			s.active[c] = true
			remaining++
		}
	}
	if remaining == 0 {
		return s.iters, firstErr
	}
	s.bMulVec(s.r, x)
	s.bSub(s.r, b)
	s.bDot(s.r, s.r, s.rn2)
	for c := 0; c < m; c++ {
		if !s.active[c] {
			continue
		}
		rnorm := math.Sqrt(s.rn2[c])
		if notFinite(rnorm) {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: column %d: initial residual norm %g", errNotFinite, c, rnorm)
			}
			s.active[c] = false
			remaining--
		} else if rnorm <= s.tol*s.bnorm[c] {
			s.active[c] = false // warm start already within tolerance
			remaining--
		}
	}
	if remaining == 0 {
		return s.iters, firstErr
	}
	s.ic.applyBatch(s.z, s.r, s.m, s.vec)
	copy(s.p, s.z)
	s.bDot(s.r, s.z, s.rz)
	for it := 1; it <= s.maxIter; it++ {
		s.bMulVec(s.ap, s.p)
		s.bDot(s.p, s.ap, s.pap)
		for c := 0; c < m; c++ {
			if !s.active[c] {
				s.sc[c] = 0
				continue
			}
			if s.pap[c] <= 0 {
				if firstErr == nil {
					firstErr = fmt.Errorf("sparse: column %d: pᵀAp = %g <= 0; matrix not SPD", c, s.pap[c])
				}
				s.iters[c] = it
				s.active[c] = false
				s.sc[c] = 0
				remaining--
				continue
			}
			s.sc[c] = s.rz[c] / s.pap[c]
		}
		if remaining == 0 {
			return s.iters, firstErr
		}
		s.bAxpy2(s.sc, x, s.p, s.r, s.ap)
		s.bDot(s.r, s.r, s.rn2)
		for c := 0; c < m; c++ {
			if s.active[c] && math.Sqrt(s.rn2[c]) <= s.tol*s.bnorm[c] {
				s.iters[c] = it
				s.active[c] = false
				remaining--
			}
		}
		if remaining == 0 {
			return s.iters, firstErr
		}
		s.ic.applyBatch(s.z, s.r, s.m, s.vec)
		s.bDot(s.r, s.z, s.rn2) // rn2 reused as rzNew
		for c := 0; c < m; c++ {
			if !s.active[c] {
				s.sc[c] = 0
				continue
			}
			s.sc[c] = s.rn2[c] / s.rz[c]
			s.rz[c] = s.rn2[c]
		}
		s.bXpBY(s.p, s.z, s.sc)
	}
	for c := 0; c < m; c++ {
		if s.active[c] {
			s.iters[c] = s.maxIter
			s.active[c] = false
		}
	}
	if firstErr == nil {
		firstErr = ErrNoConvergence
	}
	return s.iters, firstErr
}
