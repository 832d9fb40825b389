package pdn

import (
	"fmt"
	"sync"

	"voltsense/internal/banded"
	"voltsense/internal/grid"
	"voltsense/internal/mat"
	"voltsense/internal/sparse"
)

// BatchSimulator integrates many independent transients — same grid, same
// time step, different load sequences — in lock step, and holds the
// package's one copy of the backward-Euler step and of the DC settle; a
// Simulator is a batch of width 1.
//
// On either backend the columns split into k = min(m, workers) contiguous
// blocks, workers being SimOptions.Workers or, when that is 0, the mat
// pool's parallelism at construction. All blocks share the step system,
// the DC system and one row order pos of the nodes; each block owns an
// interleaved right-hand-side buffer for its columns, and on sparse a
// solution buffer and a PCG workspace. A block solves all its columns in
// one solve (solveBlock), against the step system or, when settling,
// against the DC system. A Step runs every block's share — assemble the
// right-hand sides, solve, update the pad currents — concurrently as
// preallocated pool jobs, and RunAll settles each block's columns inside
// that block's share in the same way.
//
// On the banded backend the buffer holds a block's columns at
// banded.ColumnStride of its width in the factors' short-axis numbering,
// and a solve is one forward and one backward sweep of the factor's rows
// (four columns per vector on AVX2). On the sparse backend the buffers are
// in the step system's RCM order at the block's width, and a solve is one
// blocked multi-RHS PCG (sparse.BatchCGSolver), so the matrix and IC factor
// stream through memory once per iteration for the whole block: that
// amortization is why there are no more blocks than workers. A block's
// step and DC solvers share its PCG workspace, which sparse's WithMatrix
// provides, so the DC system costs its matrix and factor and nothing per
// block.
//
// Column results are bitwise identical at every width and block count: the
// batch PCG freezes converged columns exactly where a single-column solve
// would return, the row-partitioned kernels give the same bits at any
// worker count, the interleaved banded sweep keeps each column's
// single-solve arithmetic, and the rhs and pad-state updates are
// per-column scalar code either way. A BatchSimulator is not safe for
// concurrent use.
type BatchSimulator struct {
	g       *grid.Grid
	m       int
	backend Backend

	cOverH  []float64
	padGeff []float64
	padLh   []float64

	vCols      [][]float64 // node voltages per column (state)
	padCurCols [][]float64 // pad branch currents per column (state)

	// pos[node] is the node's row in both mesh systems and in every block's
	// buffers: the banded short-axis numbering, or the inverse of the
	// sparse step system's RCM permutation perm, which the DC system
	// reuses.
	pos, perm []int
	// chol and dcChol are the banded step and DC factors, shared by the
	// blocks; dcChol is nil until the first settle.
	chol, dcChol *banded.CholFactor

	blocks      []*colBlock // contiguous column ranges, in column order
	settleLoads [][]float64 // SettleColumn's load columns: nil but for the one it settles

	// forBlocks' dispatch: the stage every block runs, its load columns,
	// and the prebuilt stages.
	wg                     sync.WaitGroup
	stage                  func(*colBlock)
	stageLoads             [][]float64
	stepShare, settleShare func(*colBlock)
}

// colBlock owns columns [lo, hi) of a BatchSimulator and the buffers its
// solves run in.
type colBlock struct {
	lo, hi int
	stride int       // row stride of rhs and x
	rhs    []float64 // right-hand sides: column c of row r at rhs[r*stride+c-lo]
	x      []float64 // solutions in rhs's layout; rhs itself on banded, which solves in place
	// cg and dc are the block's PCGs for the step and the DC system over
	// one workspace (sparse only; dc is nil until the first settle).
	cg, dc *sparse.BatchCGSolver
	err    error  // the block's failure in the last stage
	job    func() // runs the current stage on this block as a pool job
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
		g: g, m: nrhs,
		cOverH:      make([]float64, n),
		padGeff:     make([]float64, len(g.Pads)),
		padLh:       make([]float64, len(g.Pads)),
		settleLoads: make([][]float64, nrhs),
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
	for c := 0; c < nrhs; c++ {
		s.vCols[c] = make([]float64, n)
		s.padCurCols[c] = make([]float64, len(g.Pads))
	}
	backend := opts.Backend
	if backend == Auto {
		backend = chooseBackend(g)
	}
	s.backend = backend
	diag := stepDiag(g, s.cOverH, s.padGeff)
	var sys *sparseSystem
	var err error
	switch backend {
	case Banded:
		s.pos = shortAxisOrder(g)
		if s.chol, err = factorBanded(g, diag, s.pos); err != nil {
			return nil, err
		}
	case Sparse:
		if sys, err = newSparseSystem(g, diag, nil); err != nil {
			return nil, err
		}
		s.perm = sys.perm
		s.pos = make([]int, n)
		for row, node := range s.perm {
			s.pos[node] = row
		}
	default:
		return nil, fmt.Errorf("pdn: unknown backend %v", backend)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = mat.Parallelism()
	}
	k := min(nrhs, workers)
	for i := 0; i < k; i++ {
		b := &colBlock{lo: i * nrhs / k, hi: (i + 1) * nrhs / k}
		width := b.hi - b.lo
		if backend == Banded {
			b.stride = banded.ColumnStride(width)
			b.rhs = make([]float64, n*b.stride)
			b.x = b.rhs
		} else {
			b.stride = width
			b.rhs, b.x = make([]float64, n*width), make([]float64, n*width)
			b.cg, err = sparse.NewBatchCGSolver(sys.a, width, sparse.CGOptions{
				Tol: stepCGTol, Precond: sys.pre, Workers: opts.Workers,
			})
			if err != nil {
				return nil, fmt.Errorf("pdn: sparse batch solver: %w", err)
			}
		}
		b.job = func() {
			s.stage(b)
			s.wg.Done()
		}
		s.blocks = append(s.blocks, b)
	}
	s.stepShare = func(b *colBlock) { b.err = s.solveBlock(b, s.stageLoads, false) }
	s.settleShare = func(b *colBlock) { b.err = s.solveBlock(b, s.stageLoads, true) }
	s.Reset()
	return s, nil
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

// buildDC builds the DC system (inductors shorted, capacitors open) on the
// first settle, so step-only simulators never pay for it, in the step
// system's row order pos: on banded a second factor, on sparse the DC
// matrix with its own IC factor, which each block solves through a PCG
// over its step PCG's workspace.
func (s *BatchSimulator) buildDC() error {
	if s.dcChol != nil || s.blocks[0].dc != nil {
		return nil
	}
	diag := dcDiag(s.g)
	if s.backend == Banded {
		var err error
		s.dcChol, err = factorBanded(s.g, diag, s.pos)
		return err
	}
	sys, err := newSparseSystem(s.g, diag, s.perm)
	if err != nil {
		return err
	}
	dcs := make([]*sparse.BatchCGSolver, len(s.blocks))
	for i, b := range s.blocks {
		if dcs[i], err = b.cg.WithMatrix(sys.a, sparse.CGOptions{Tol: dcCGTol, Precond: sys.pre}); err != nil {
			return fmt.Errorf("pdn: sparse DC solver: %w", err)
		}
	}
	for i, b := range s.blocks {
		b.dc = dcs[i]
	}
	return nil
}

// SettleColumn initializes column c at the DC operating point of the given
// node loads, as Simulator.Settle describes. It solves c's whole block,
// the block's other columns at a zero right-hand side, and writes back
// column c alone.
func (s *BatchSimulator) SettleColumn(c int, loads []float64) error {
	if n := s.g.NumNodes(); len(loads) != n {
		panic(fmt.Sprintf("pdn: loads length %d, want %d", len(loads), n))
	}
	if err := s.buildDC(); err != nil {
		return err
	}
	var b *colBlock
	for _, b = range s.blocks {
		if c < b.hi {
			break
		}
	}
	s.settleLoads[c] = loads
	err := s.solveBlock(b, s.settleLoads, true)
	s.settleLoads[c] = nil
	return err
}

// settleAll settles every column c at the DC operating point of loads[c],
// each block's columns in one solve inside that block's share. It returns
// the first failure in column order.
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

// solveBlock advances block b's columns by one solve for their node loads:
// a time step, or with settle set the DC settle. It writes the right-hand
// sides into the block's buffer in row order pos, starts the sparse PCG
// from the columns' state (step) or from VDD (settle), solves the step or
// the DC system, scatters the solutions into the columns' voltages and
// brings their pad currents up to date. A column whose loads are nil gets
// a zero right-hand side and keeps its state: SettleColumn settles one
// column of a block that way. It allocates nothing.
func (s *BatchSimulator) solveBlock(b *colBlock, loads [][]float64, settle bool) error {
	vs, lds := s.vCols[b.lo:b.hi], loads[b.lo:b.hi]
	vdd := s.g.Cfg.VDD
	if settle {
		s.assembleDC(b, lds)
	} else {
		s.assemble(b, lds)
	}
	var err error
	switch {
	case b.cg == nil: // banded
		f := s.chol
		if settle {
			f = s.dcChol
		}
		f.SolveColsInPlace(b.x, b.stride)
	case settle:
		for i := range b.x {
			b.x[i] = vdd
		}
		_, err = b.dc.SolveBatch(b.x, b.rhs)
	default:
		for i, r := range s.pos {
			row := b.x[r*b.stride : r*b.stride+len(vs)]
			for c, v := range vs {
				row[c] = v[i]
			}
		}
		_, err = b.cg.SolveBatch(b.x, b.rhs)
	}
	if err != nil {
		if settle {
			return fmt.Errorf("pdn: DC settle: %w", err)
		}
		return err
	}
	for i, r := range s.pos {
		row := b.x[r*b.stride : r*b.stride+len(vs)]
		for c, v := range vs {
			if lds[c] != nil {
				v[i] = row[c]
			}
		}
	}
	if !settle {
		s.updatePads(b.lo, b.hi)
		return nil
	}
	for c, ld := range lds {
		if ld == nil {
			continue
		}
		v, padCur := vs[c], s.padCurCols[b.lo+c]
		for p, pad := range s.g.Pads {
			padCur[p] = (vdd - v[pad.Node]) / pad.R
		}
	}
	return nil
}

// assemble writes the step right-hand sides of block b's columns for their
// node loads lds into b.rhs: (C/h)·v − load, plus each pad's VDD injection
// and inductor history. The node loop is outermost, so every row of the
// buffer is written whole.
func (s *BatchSimulator) assemble(b *colBlock, lds [][]float64) {
	vdd := s.g.Cfg.VDD
	vs, x, w := s.vCols[b.lo:b.hi], b.rhs, b.stride
	for i, ch := range s.cOverH {
		r := s.pos[i]
		row := x[r*w : r*w+len(vs)]
		for c, v := range vs {
			row[c] = ch*v[i] - lds[c][i]
		}
	}
	for p, pad := range s.g.Pads {
		r := s.pos[pad.Node]
		row := x[r*w : r*w+len(vs)]
		for c := range row {
			row[c] += s.padGeff[p] * (vdd + s.padLh[p]*s.padCurCols[b.lo+c][p])
		}
	}
}

// assembleDC writes the DC right-hand sides of block b's columns for their
// node loads lds into b.rhs: each load drawn out of its node, each pad
// injecting VDD/R. A column whose loads are nil gets zeros.
func (s *BatchSimulator) assembleDC(b *colBlock, lds [][]float64) {
	x, w := b.rhs, b.stride
	for i, r := range s.pos {
		row := x[r*w : r*w+len(lds)]
		for c, ld := range lds {
			row[c] = 0
			if ld != nil {
				row[c] = -ld[i]
			}
		}
	}
	vdd := s.g.Cfg.VDD
	for _, pad := range s.g.Pads {
		gdc := 1 / pad.R // the inductor is a short at DC
		r := s.pos[pad.Node]
		row := x[r*w : r*w+len(lds)]
		for c, ld := range lds {
			if ld != nil {
				row[c] += gdc * vdd
			}
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
