package sparse

import (
	"fmt"
	"math"
)

// Blocked multi-RHS preconditioned conjugate gradient. Transient stepping
// across a benchmark suite solves the SAME matrix against many right-hand
// sides per time step, and the per-solve cost at mesh sizes past L2 is
// memory traffic: every PCG iteration streams the matrix (and the IC
// factor) once per RHS. BatchCGSolver interleaves nrhs systems — element
// (i, c) lives at x[i*nrhs+c] — so each matrix and factor traversal serves
// every RHS at once, amortizing the dominant stream nrhs ways while the
// per-column arithmetic stays untouched.
//
// Equivalence contract: per column, the floating-point operations execute
// in exactly the order of a CGSolver.Solve on that column alone — the same
// k-ascending SpMV accumulation, the same dotBlock-blocked reductions
// combined serially in block order, the same update sequence — and columns
// that converge are frozen (no further state updates), exactly where the
// looped solve would have returned. SolveBatch is therefore bitwise
// identical to looping Solve over the columns, at any worker count. Tests
// assert this, not just a tolerance.

// BatchCGSolver solves A·X = B for a fixed column count with one matrix
// traversal per PCG iteration. Workspace — including every parallel stage
// closure — is allocated at construction; SolveBatch allocates nothing.
// Not safe for concurrent use.
type BatchCGSolver struct {
	a       *CSR
	pre     Preconditioner
	tol     float64
	maxIter int
	n, m    int

	t    team
	sums []float64 // numDotBlocks(n) * m reduction blocks

	// interleaved n×m workspaces
	r, z, p, ap []float64

	// per-column state
	bnorm, rn2, rz, pap, sc []float64
	active                  []bool
	iters                   []int

	// staged operands for the prebuilt stages
	sx, sy, sz, sw []float64

	fnSpMV, fnDot, fnAxpy2, fnXpBY, fnSub func(lo, hi int)

	// preconditioner application, chosen at construction
	applyPreBatch func(z, r []float64)
	// fallback per-column scratch (generic Preconditioner)
	colZ, colR []float64
	// Chebyshev batch workspace
	chRes, chW, chD []float64
}

// NewBatchCGSolver prepares a solver for nrhs simultaneous systems on the
// SPD matrix a. Options mirror NewCGSolver: nil Precond builds Jacobi; IC,
// Jacobi and Cheby preconditioners get dedicated batch applications (factor
// traversed once for all columns), anything else is applied column by
// column.
func NewBatchCGSolver(a *CSR, nrhs int, opt CGOptions) (*BatchCGSolver, error) {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("sparse: batch CG needs square matrix, got %dx%d", a.rows, a.cols))
	}
	if nrhs < 1 {
		panic(fmt.Sprintf("sparse: batch CG needs nrhs >= 1, got %d", nrhs))
	}
	pre := opt.Precond
	if pre == nil {
		j, err := NewJacobi(a)
		if err != nil {
			return nil, err
		}
		pre = j
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	m := nrhs
	s := &BatchCGSolver{
		a: a, pre: pre, tol: tol, maxIter: maxIter, n: n, m: m,
		sums: make([]float64, numDotBlocks(n)*m),
		r:    make([]float64, n*m), z: make([]float64, n*m),
		p: make([]float64, n*m), ap: make([]float64, n*m),
		bnorm: make([]float64, m), rn2: make([]float64, m),
		rz: make([]float64, m), pap: make([]float64, m),
		sc:     make([]float64, m),
		active: make([]bool, m), iters: make([]int, m),
	}
	s.t.init(opt.Workers)
	s.buildStages()
	s.bindPreconditioner()
	return s, nil
}

// NRHS returns the column count the solver was built for.
func (s *BatchCGSolver) NRHS() int { return s.m }

// buildStages prebuilds the interleaved parallel kernels. Partitioning is
// by row (SpMV, elementwise) or by reduction block (dots): one writer per
// output element, per-column operation order fixed — bitwise identical
// across worker counts, like the single-RHS kernels in parallel.go. Each
// share loads the staged operands into locals once and slices a row before
// its inner loop, so the stores cannot force the operands to be reloaded.
func (s *BatchCGSolver) buildStages() {
	m, n := s.m, s.n
	rowPtr, colIdx, val := s.a.rowPtr, s.a.colIdx, s.a.val
	s.fnSpMV = func(lo, hi int) {
		x, y := s.sx, s.sy
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
	s.fnDot = func(lo, hi int) {
		x, y, all := s.sx, s.sy, s.sums
		for b := lo; b < hi; b++ {
			start := b * dotBlock
			end := min(start+dotBlock, n)
			sums := all[b*m : b*m+m]
			for c := range sums {
				sums[c] = 0
			}
			for i := start; i < end; i++ {
				xi := x[i*m:][:len(sums)]
				yi := y[i*m:][:len(sums)]
				for c, xv := range xi {
					sums[c] += xv * yi[c]
				}
			}
		}
	}
	s.fnAxpy2 = func(lo, hi int) {
		x, y, z, w := s.sx, s.sy, s.sz, s.sw
		active := s.active
		sc := s.sc[:len(active)]
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
	s.fnXpBY = func(lo, hi int) {
		x, y := s.sx, s.sy
		active := s.active
		sc := s.sc[:len(active)]
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
	s.fnSub = func(lo, hi int) {
		x, y := s.sx[lo*m:hi*m], s.sy[lo*m:hi*m]
		for i, yv := range y {
			x[i] = yv - x[i]
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
	s.sx, s.sz, s.sy, s.sw = x, p, r, ap
	s.t.run(s.n, s.batchRowChunk(), s.fnAxpy2)
}

func (s *BatchCGSolver) bXpBY(p, z, beta []float64) {
	copy(s.sc, beta)
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
// error: ErrNoConvergence if any column ran out of iterations, or the
// pᵀAp breakdown error. A column that fails is frozen where the equivalent
// single-RHS Solve would have stopped; the remaining columns still finish.
// Allocates nothing.
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
		if s.bnorm[c] == 0 {
			s.active[c] = false
			for i := 0; i < n; i++ {
				x[i*m+c] = 0
			}
		} else {
			s.active[c] = true
			remaining++
		}
	}
	if remaining == 0 {
		return s.iters, nil
	}
	s.bMulVec(s.r, x)
	s.bSub(s.r, b)
	s.bDot(s.r, s.r, s.rn2)
	for c := 0; c < m; c++ {
		if s.active[c] && math.Sqrt(s.rn2[c]) <= s.tol*s.bnorm[c] {
			s.active[c] = false // warm start already within tolerance
			remaining--
		}
	}
	if remaining == 0 {
		return s.iters, nil
	}
	s.applyPreBatch(s.z, s.r)
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
		s.applyPreBatch(s.z, s.r)
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

// bindPreconditioner selects the batch application for the concrete
// preconditioner type. IC traverses the factor once for all columns with
// level-scheduled parallel sweeps; Jacobi and Chebyshev are row-partitioned
// interleaved kernels; anything else falls back to column-by-column Apply.
func (s *BatchCGSolver) bindPreconditioner() {
	switch p := s.pre.(type) {
	case *Jacobi:
		stage := func(lo, hi int) {
			m := s.m
			for i := lo; i < hi; i++ {
				d := p.invD[i]
				base := i * m
				for c := 0; c < m; c++ {
					s.sx[base+c] = d * s.sy[base+c]
				}
			}
		}
		s.applyPreBatch = func(z, r []float64) {
			s.sx, s.sy = z, r
			s.t.run(s.n, s.batchRowChunk(), stage)
		}
	case *IC:
		s.bindIC(p)
	case *Cheby:
		s.bindCheby(p)
	default:
		s.colZ = make([]float64, s.n)
		s.colR = make([]float64, s.n)
		s.applyPreBatch = func(z, r []float64) {
			m := s.m
			for c := 0; c < m; c++ {
				UnpackColumn(s.colR, r, c, m)
				s.pre.Apply(s.colZ, s.colR)
				PackColumn(z, s.colZ, c, m)
			}
		}
	}
}

// bindIC prebuilds the multi-RHS level-scheduled triangular sweeps: within
// each level the rows are independent, and each row's forward/backward
// substitution runs for all columns while the factor row is hot. Per
// column the operation order matches IC.Apply exactly.
func (s *BatchCGSolver) bindIC(p *IC) {
	m, n := s.m, s.n
	lRowPtr, lColIdx, lVal := p.l.rowPtr, p.l.colIdx, p.l.val
	ltRowPtr, ltColIdx, ltVal := p.lt.rowPtr, p.lt.colIdx, p.lt.val
	var rowsCur []int
	fwdStage := func(lo, hi int) {
		z, r := s.sx, s.sy
		for _, i := range rowsCur[lo:hi] {
			base := i * m
			zi := z[base : base+m]
			copy(zi, r[base:base+m])
			start, end := lRowPtr[i], lRowPtr[i+1]-1 // diagonal is last
			vals := lVal[start:end]
			for k, j := range lColIdx[start:end] {
				v := vals[k]
				zj := z[j*m:][:len(zi)]
				for c, zv := range zj {
					zi[c] -= v * zv
				}
			}
			d := lVal[end]
			for c := range zi {
				zi[c] /= d
			}
		}
	}
	bwdStage := func(lo, hi int) {
		z := s.sx
		for _, ri := range rowsCur[lo:hi] {
			i := n - 1 - ri
			base := i * m
			zi := z[base : base+m]
			start, end := ltRowPtr[i], ltRowPtr[i+1] // diagonal is first
			vals := ltVal[start+1 : end]
			for k, j := range ltColIdx[start+1 : end] {
				v := vals[k]
				zj := z[j*m:][:len(zi)]
				for c, zv := range zj {
					zi[c] -= v * zv
				}
			}
			d := ltVal[start]
			for c := range zi {
				zi[c] /= d
			}
		}
	}
	levelChunk := levelRowChunk / m
	if levelChunk < 1 {
		levelChunk = 1
	}
	s.applyPreBatch = func(z, r []float64) {
		s.sx, s.sy = z, r
		for lv := 0; lv < p.fwd.numLevels(); lv++ {
			rowsCur = p.fwd.rows[p.fwd.ptr[lv]:p.fwd.ptr[lv+1]]
			s.t.run(len(rowsCur), levelChunk, fwdStage)
		}
		for lv := 0; lv < p.bwd.numLevels(); lv++ {
			rowsCur = p.bwd.rows[p.bwd.ptr[lv]:p.bwd.ptr[lv+1]]
			s.t.run(len(rowsCur), levelChunk, bwdStage)
		}
		rowsCur = nil
	}
}

// bindCheby prebuilds the multi-RHS Chebyshev semi-iteration: the
// recurrence scalars are column-independent (they depend only on the
// spectrum bounds), so the batch application is the single-RHS stage
// sequence over interleaved vectors with batch SpMVs.
func (s *BatchCGSolver) bindCheby(p *Cheby) {
	m, n := s.m, s.n
	s.chRes = make([]float64, n*m)
	s.chW = make([]float64, n*m)
	s.chD = make([]float64, n*m)
	var s1, s2 float64
	var z, r []float64
	stFirst := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f := s1 * p.invD[i]
			base := i * m
			for c := 0; c < m; c++ {
				v := f * r[base+c]
				z[base+c] = v
				s.chD[base+c] = v
			}
		}
	}
	stResid := func(lo, hi int) {
		for i := lo * m; i < hi*m; i++ {
			s.chRes[i] = r[i] - s.chRes[i]
		}
	}
	stScaleW := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d := p.invD[i]
			base := i * m
			for c := 0; c < m; c++ {
				s.chW[base+c] = d * s.chRes[base+c]
			}
		}
	}
	stUpdate := func(lo, hi int) {
		a1, a2 := s1, s2
		for i := lo * m; i < hi*m; i++ {
			s.chD[i] = a1*s.chD[i] + a2*s.chW[i]
			z[i] += s.chD[i]
		}
	}
	rc := s.batchRowChunk()
	s.applyPreBatch = func(zz, rr []float64) {
		z, r = zz, rr
		theta := (p.lmax + p.lmin) / 2
		delta := (p.lmax - p.lmin) / 2
		sigma := theta / delta
		s1 = 1 / theta
		s.t.run(n, rc, stFirst)
		rho := 1 / sigma
		for k := 1; k < p.degree; k++ {
			s.bMulVec(s.chRes, z)
			s.t.run(n, rc, stResid)
			s.t.run(n, rc, stScaleW)
			rhoNew := 1 / (2*sigma - rho)
			s1 = rhoNew * rho
			s2 = 2 * rhoNew / delta
			s.t.run(n, rc, stUpdate)
			rho = rhoNew
		}
		z, r = nil, nil
	}
}

// PackColumn scatters the n-vector src into column c of the interleaved
// n×nrhs buffer dst.
func PackColumn(dst, src []float64, c, nrhs int) {
	for i, v := range src {
		dst[i*nrhs+c] = v
	}
}

// UnpackColumn gathers column c of the interleaved n×nrhs buffer src into
// the n-vector dst.
func UnpackColumn(dst, src []float64, c, nrhs int) {
	for i := range dst {
		dst[i] = src[i*nrhs+c]
	}
}
