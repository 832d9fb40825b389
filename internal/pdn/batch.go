package pdn

import (
	"fmt"
	"sync"

	"voltsense/internal/grid"
	"voltsense/internal/mat"
	"voltsense/internal/sparse"
)

// BatchSimulator integrates many independent transients — same grid, same
// time step, different load sequences — in lock step, and holds the
// package's one copy of the backward-Euler step; a Simulator is a batch of
// width 1.
//
// On either backend the columns split into k = min(m, workers) contiguous
// blocks, workers being SimOptions.Workers or, when that is 0, the mat
// pool's parallelism at construction. Each block owns a step solver for
// its width and its own DC solver; all blocks share the step system and
// one DC system. A Step runs every block's share — assemble the
// right-hand sides, solve, update the pad currents — concurrently as
// preallocated pool jobs, and RunAll settles each block's columns inside
// that block's share.
//
// On the banded backend the blocks share the one Cholesky factor. A block
// assembles its right-hand sides straight into one buffer, interleaved in
// banded order at banded.ColumnStride of its width, and solves them in one
// forward and one backward sweep of the factor's rows (four columns per
// vector on AVX2). On the sparse backend a block of two or more columns
// solves them with one blocked multi-RHS PCG (sparse.BatchCGSolver), so the
// matrix and IC factor stream through memory once per iteration for the
// whole block: that amortization is why there are no more blocks than
// workers. A one-column sparse block steps through the single-RHS PCG the
// DC settle uses, which solves in under half the time a one-column batch
// PCG takes (sparse's BenchmarkSolveSingle vs BenchmarkSolveBatchWidth1).
//
// Column results are bitwise identical at every width and block count: the
// batch PCG freezes converged columns exactly where the single-RHS solve
// would return, the row-partitioned kernels give the same bits at any
// worker count, the interleaved banded sweep keeps each column's
// single-solve arithmetic, and the rhs and pad-state updates are
// per-column scalar code either way. A BatchSimulator is not safe for
// concurrent use.
type BatchSimulator struct {
	g       *grid.Grid
	m       int
	backend Backend
	workers int // SimOptions.Workers, the kernel bound of the DC solvers

	cOverH  []float64
	padGeff []float64
	padLh   []float64

	vCols      [][]float64 // node voltages per column (state)
	padCurCols [][]float64 // pad branch currents per column (state)
	rhsCols    [][]float64 // scratch

	blocks []*colBlock // contiguous column ranges, in column order

	// forBlocks' dispatch: the stage every block runs, its load columns,
	// and the prebuilt stages.
	wg                     sync.WaitGroup
	stage                  func(*colBlock)
	stageLoads             [][]float64
	stepShare, settleShare func(*colBlock)
}

// colBlock owns columns [lo, hi) of a BatchSimulator.
type colBlock struct {
	lo, hi int
	step   colSolver  // the step system for the block's width
	dc     meshSolver // the block's DC solver; nil until the first settle
	err    error      // the block's failure in the last stage
	job    func()     // runs the current stage on this block as a pool job
}

// colSolver steps a block's columns [lo, hi) of s: it assembles their
// right-hand sides from s's state and the loads, and writes the solutions
// into s.vCols, whose entries iterative backends take as the warm start.
// Implementations must not allocate.
type colSolver interface {
	stepCols(s *BatchSimulator, lo, hi int, loads [][]float64) error
}

// NewBatchSimulator assembles one shared backward-Euler system for nrhs
// lock-stepped transients on g. Options have the same meaning as
// NewSimulatorOpts; Workers also bounds the number of column blocks.
func NewBatchSimulator(g *grid.Grid, dt float64, nrhs int, opts SimOptions) (*BatchSimulator, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("pdn: non-positive time step %g", dt)
	}
	if nrhs < 1 {
		return nil, fmt.Errorf("pdn: batch simulator needs nrhs >= 1, got %d", nrhs)
	}
	n := g.NumNodes()
	s := &BatchSimulator{
		g: g, m: nrhs, workers: opts.Workers,
		cOverH:  make([]float64, n),
		padGeff: make([]float64, len(g.Pads)),
		padLh:   make([]float64, len(g.Pads)),
	}
	for i, c := range g.Caps {
		s.cOverH[i] = c / dt
	}
	for p, pad := range g.Pads {
		lh := pad.L / dt
		s.padLh[p] = lh
		s.padGeff[p] = 1 / (pad.R + lh)
	}
	s.vCols = make([][]float64, nrhs)
	s.padCurCols = make([][]float64, nrhs)
	s.rhsCols = make([][]float64, nrhs)
	for c := 0; c < nrhs; c++ {
		s.vCols[c] = make([]float64, n)
		s.padCurCols[c] = make([]float64, len(g.Pads))
		s.rhsCols[c] = make([]float64, n)
	}
	backend := opts.Backend
	if backend == Auto {
		backend = chooseBackend(g)
	}
	s.backend = backend
	diag := stepDiag(g, s.cOverH, s.padGeff)
	workers := opts.Workers
	if workers <= 0 {
		workers = mat.Parallelism()
	}
	k := min(nrhs, workers)
	switch backend {
	case Banded:
		chol, pos, err := factorBanded(g, diag)
		if err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			lo, hi := i*nrhs/k, (i+1)*nrhs/k
			s.addBlock(lo, hi, newBandedSolver(chol, pos, hi-lo))
		}
	case Sparse:
		sys, err := newSparseSystem(g, diag)
		if err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			lo, hi := i*nrhs/k, (i+1)*nrhs/k
			var step colSolver
			if hi-lo == 1 {
				step, err = newSparseSolver(sys, stepCGTol, opts.Workers)
			} else {
				step, err = newBatchSolver(sys, hi-lo, opts.Workers)
			}
			if err != nil {
				return nil, err
			}
			s.addBlock(lo, hi, step)
		}
	default:
		return nil, fmt.Errorf("pdn: unknown backend %v", backend)
	}
	s.stepShare = func(b *colBlock) {
		b.err = b.step.stepCols(s, b.lo, b.hi, s.stageLoads)
		s.updatePads(b.lo, b.hi)
	}
	s.settleShare = func(b *colBlock) {
		for c := b.lo; c < b.hi && b.err == nil; c++ {
			b.err = settleInto(s.g, b.dc, s.stageLoads[c], s.vCols[c], s.padCurCols[c], s.rhsCols[c])
		}
	}
	s.Reset()
	return s, nil
}

// addBlock appends the block of columns [lo, hi) with its step solver and
// its prebuilt pool job.
func (s *BatchSimulator) addBlock(lo, hi int, step colSolver) {
	b := &colBlock{lo: lo, hi: hi, step: step}
	b.job = func() {
		s.stage(b)
		s.wg.Done()
	}
	s.blocks = append(s.blocks, b)
}

// Backend reports the resolved solver path.
func (s *BatchSimulator) Backend() Backend { return s.backend }

// Reset returns every column to the quiescent state.
func (s *BatchSimulator) Reset() {
	for c := 0; c < s.m; c++ {
		for i := range s.vCols[c] {
			s.vCols[c][i] = s.g.Cfg.VDD
		}
		for i := range s.padCurCols[c] {
			s.padCurCols[c][i] = 0
		}
	}
}

// forBlocks runs stage on every block with loads staged for it — the blocks
// after the first as pool jobs (inline when the pool is busy or absent), the
// first on the calling goroutine — and returns once all have finished.
// stage is one of the prebuilt shares, so a dispatch allocates nothing.
func (s *BatchSimulator) forBlocks(stage func(*colBlock), loads [][]float64) {
	s.stage, s.stageLoads = stage, loads
	for _, b := range s.blocks {
		b.err = nil
	}
	s.wg.Add(len(s.blocks) - 1)
	for _, b := range s.blocks[1:] {
		if !mat.Submit(b.job) {
			b.job()
		}
	}
	stage(s.blocks[0])
	s.wg.Wait()
	s.stage, s.stageLoads = nil, nil
}

// buildDC builds the DC system on the first settle, so step-only simulators
// never pay for it, and gives every block its own solver over it.
func (s *BatchSimulator) buildDC() error {
	if s.blocks[0].dc != nil {
		return nil
	}
	dcs, err := newDCSolvers(s.g, s.backend, s.workers, len(s.blocks))
	if err != nil {
		return err
	}
	for i, b := range s.blocks {
		b.dc = dcs[i]
	}
	return nil
}

// SettleColumn initializes column c at the DC operating point of the given
// node loads, as Simulator.Settle describes: the columns share one DC
// system, built on the first settle.
func (s *BatchSimulator) SettleColumn(c int, loads []float64) error {
	if err := s.buildDC(); err != nil {
		return err
	}
	return settleInto(s.g, s.blocks[0].dc, loads, s.vCols[c], s.padCurCols[c], s.rhsCols[c])
}

// settleAll settles every column c at the DC operating point of loads[c],
// each block's columns inside that block's share. It returns the first
// failure in column order.
func (s *BatchSimulator) settleAll(loads [][]float64) error {
	if err := s.buildDC(); err != nil {
		return err
	}
	s.forBlocks(s.settleShare, loads)
	for _, b := range s.blocks {
		if b.err != nil {
			return b.err
		}
	}
	return nil
}

// Step advances every column one time step; loads[c] holds the node loads
// of column c. It returns the per-column node voltages; the slices are the
// simulator's internal state, valid until the next Step or Reset.
func (s *BatchSimulator) Step(loads [][]float64) [][]float64 {
	if len(loads) != s.m {
		panic(fmt.Sprintf("pdn: %d load columns, want %d", len(loads), s.m))
	}
	n := s.g.NumNodes()
	for c, ld := range loads {
		if len(ld) != n {
			panic(fmt.Sprintf("pdn: column %d loads length %d, want %d", c, len(ld), n))
		}
	}
	s.forBlocks(s.stepShare, loads)
	for _, b := range s.blocks {
		if b.err != nil {
			// The system matrix is constant and SPD with a preconditioner
			// built for it; failure here means the simulator was
			// mis-assembled or handed a NaN or infinite load (the sparse
			// solvers refuse one at once), a programming error like the
			// shape panics.
			panic(fmt.Sprintf("pdn: step solve failed: %v", b.err))
		}
	}
	return s.vCols
}

// assemble writes the step right-hand sides of columns [lo, hi) for their
// node loads into x, interleaved at stride: (C/h)·v − load, plus each pad's
// VDD injection and inductor history. Column c's entry for node i goes to
// x[r*stride+c-lo], where r is pos[i], or i when pos is nil. The node loop
// is outermost, so every row of x is written whole.
func (s *BatchSimulator) assemble(lo, hi int, loads [][]float64, x []float64, pos []int, stride int) {
	vdd := s.g.Cfg.VDD
	vs, lds := s.vCols[lo:hi], loads[lo:hi]
	for i, ch := range s.cOverH {
		r := i
		if pos != nil {
			r = pos[i]
		}
		row := x[r*stride : r*stride+len(vs)]
		for c, v := range vs {
			row[c] = ch*v[i] - lds[c][i]
		}
	}
	for p, pad := range s.g.Pads {
		r := pad.Node
		if pos != nil {
			r = pos[r]
		}
		row := x[r*stride : r*stride+len(vs)]
		for c := range row {
			row[c] += s.padGeff[p] * (vdd + s.padLh[p]*s.padCurCols[lo+c][p])
		}
	}
}

// updatePads advances the pad branch currents of columns [lo, hi) to the
// step just solved.
func (s *BatchSimulator) updatePads(lo, hi int) {
	vdd := s.g.Cfg.VDD
	for c := lo; c < hi; c++ {
		v, padCur := s.vCols[c], s.padCurCols[c]
		for p, pad := range s.g.Pads {
			padCur[p] = s.padGeff[p] * (vdd - v[pad.Node] + s.padLh[p]*padCur[p])
		}
	}
}

// RunAll integrates steps time steps for every column, settling each column
// first at the DC point of its first step's currents. currentAt(c, t) must
// return column c's per-block currents at step t; onStep(c, t, v) receives
// each column's node voltages after every step (same aliasing rule as
// Step). onStep may be nil. Both callbacks run on the calling goroutine.
func (s *BatchSimulator) RunAll(steps int, currentAt func(c, t int) []float64, onStep func(c, t int, v []float64)) error {
	loaders := make([]*BlockLoader, s.m)
	loads := make([][]float64, s.m)
	for c := range loaders {
		loaders[c] = NewBlockLoader(s.g)
	}
	for t := 0; t < steps; t++ {
		for c := range loads {
			loads[c] = loaders[c].Loads(currentAt(c, t))
		}
		if t == 0 {
			if err := s.settleAll(loads); err != nil {
				return err
			}
		}
		vs := s.Step(loads)
		if onStep != nil {
			for c, v := range vs {
				onStep(c, t, v)
			}
		}
	}
	return nil
}

// batchSolver steps two or more columns through one blocked multi-RHS PCG
// on the RCM-permuted step system, through interleaved permuted buffers.
type batchSolver struct {
	cg     *sparse.BatchCGSolver
	perm   []int
	xI, bI []float64
}

// newBatchSolver prepares the batch PCG for m columns on sys at stepCGTol,
// with the system's preconditioner and the given worker bound.
func newBatchSolver(sys *sparseSystem, m, workers int) (*batchSolver, error) {
	cg, err := sparse.NewBatchCGSolver(sys.a, m, sparse.CGOptions{
		Tol: stepCGTol, Precond: sys.pre, Workers: workers,
	})
	if err != nil {
		return nil, fmt.Errorf("pdn: sparse batch solver: %w", err)
	}
	n := sys.a.Rows()
	return &batchSolver{cg: cg, perm: sys.perm, xI: make([]float64, n*m), bI: make([]float64, n*m)}, nil
}

// stepCols assembles columns [lo, hi) of bs, interleaves them with their
// warm starts through the permutation and solves them in one batch PCG.
func (s *batchSolver) stepCols(bs *BatchSimulator, lo, hi int, loads [][]float64) error {
	for c := lo; c < hi; c++ {
		bs.assemble(c, c+1, loads, bs.rhsCols[c], nil, 1)
	}
	v, rhs := bs.vCols[lo:hi], bs.rhsCols[lo:hi]
	m := len(v)
	for newI, oldI := range s.perm {
		for c := 0; c < m; c++ {
			s.xI[newI*m+c] = v[c][oldI]
			s.bI[newI*m+c] = rhs[c][oldI]
		}
	}
	if _, err := s.cg.SolveBatch(s.xI, s.bI); err != nil {
		return err
	}
	for newI, oldI := range s.perm {
		for c := 0; c < m; c++ {
			v[c][oldI] = s.xI[newI*m+c]
		}
	}
	return nil
}
