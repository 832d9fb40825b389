package pdn

import (
	"fmt"

	"voltsense/internal/grid"
	"voltsense/internal/sparse"
)

// BatchSimulator integrates many independent transients — same grid, same
// time step, different load sequences — in lock step, and holds the
// package's one copy of the backward-Euler step; a Simulator is a batch of
// width 1. On the sparse backend every time step solves all columns with
// one blocked multi-RHS PCG (sparse.BatchCGSolver), so the matrix and IC
// factor stream through memory once per iteration instead of once per
// transient: that amortization is the dominant win at mesh sizes past
// cache. A single column instead steps through the single-RHS PCG the DC
// settle uses, which solves in under half the time a one-column batch PCG
// takes (sparse's BenchmarkSolveSingle vs BenchmarkSolveBatchWidth1). On
// the banded backend columns share the one Cholesky factorization and are
// solved two at a time, each pair in one walk of the factor's rows (an odd
// last column alone).
//
// Column results are bitwise identical at every width: the batch PCG
// freezes converged columns exactly where the single-RHS solve would
// return, the paired banded sweep keeps each column's single-solve
// arithmetic, and the rhs and pad-state updates are per-column scalar code
// either way.
type BatchSimulator struct {
	g       *grid.Grid
	m       int
	backend Backend

	cOverH  []float64
	padGeff []float64
	padLh   []float64

	vCols      [][]float64 // node voltages per column (state)
	padCurCols [][]float64 // pad branch currents per column (state)
	rhsCols    [][]float64 // scratch

	// banded path: the step factor, with a buffer per column of a pair
	chol *bandedSolver

	// sparse path, one column: the single-RHS PCG
	single *sparseSolver

	// sparse path, two or more columns: interleaved permuted buffers for
	// the batch solver
	batch  *sparse.BatchCGSolver
	perm   []int
	xI, bI []float64

	dc dcSolver // one DC system for every column's settle
}

// NewBatchSimulator assembles one shared backward-Euler system for nrhs
// lock-stepped transients on g. Options have the same meaning as
// NewSimulatorOpts.
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
	s.dc = dcSolver{g: g, backend: backend, workers: opts.Workers}
	diag := stepDiag(g, s.cOverH, s.padGeff)
	switch backend {
	case Banded:
		var err error
		if s.chol, err = newBandedSolver(g, diag); err != nil {
			return nil, err
		}
	case Sparse:
		sys, err := newSparseSystem(g, diag)
		if err != nil {
			return nil, err
		}
		if nrhs == 1 {
			if s.single, err = newSparseSolver(sys, stepCGTol, opts.Workers); err != nil {
				return nil, err
			}
			break
		}
		batch, err := sparse.NewBatchCGSolver(sys.a, nrhs, sparse.CGOptions{
			Tol: stepCGTol, Precond: sys.pre, Workers: opts.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("pdn: sparse batch solver: %w", err)
		}
		s.batch = batch
		s.perm = sys.perm
		s.xI = make([]float64, n*nrhs)
		s.bI = make([]float64, n*nrhs)
	default:
		return nil, fmt.Errorf("pdn: unknown backend %v", backend)
	}
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

// SettleColumn initializes column c at the DC operating point of the given
// node loads, as Simulator.Settle describes: the columns share one DC
// system, built on the first settle.
func (s *BatchSimulator) SettleColumn(c int, loads []float64) error {
	return s.dc.settleInto(loads, s.vCols[c], s.padCurCols[c], s.rhsCols[c])
}

// Step advances every column one time step; loads[c] holds the node loads
// of column c. It returns the per-column node voltages; the slices are the
// simulator's internal state, valid until the next Step or Reset.
func (s *BatchSimulator) Step(loads [][]float64) [][]float64 {
	if len(loads) != s.m {
		panic(fmt.Sprintf("pdn: %d load columns, want %d", len(loads), s.m))
	}
	n := s.g.NumNodes()
	vdd := s.g.Cfg.VDD
	for c := 0; c < s.m; c++ {
		if len(loads[c]) != n {
			panic(fmt.Sprintf("pdn: column %d loads length %d, want %d", c, len(loads[c]), n))
		}
		v, rhs, ld := s.vCols[c], s.rhsCols[c], loads[c]
		for i := 0; i < n; i++ {
			rhs[i] = s.cOverH[i]*v[i] - ld[i]
		}
		for p, pad := range s.g.Pads {
			rhs[pad.Node] += s.padGeff[p] * (vdd + s.padLh[p]*s.padCurCols[c][p])
		}
	}
	switch {
	case s.chol != nil:
		c := 0
		for ; c+1 < s.m; c += 2 {
			s.chol.solvePairInto(s.vCols[c], s.vCols[c+1], s.rhsCols[c], s.rhsCols[c+1])
		}
		if c < s.m {
			_ = s.chol.solveInto(s.vCols[c], s.rhsCols[c]) // a banded solve cannot fail
		}
	case s.single != nil:
		if err := s.single.solveInto(s.vCols[0], s.rhsCols[0]); err != nil {
			// The system matrix is constant and SPD with a preconditioner
			// built for it; failure here means the simulator was
			// mis-assembled, a programming error like the shape panics.
			panic(fmt.Sprintf("pdn: step solve failed: %v", err))
		}
	default:
		m := s.m
		for newI, oldI := range s.perm {
			for c := 0; c < m; c++ {
				s.xI[newI*m+c] = s.vCols[c][oldI]
				s.bI[newI*m+c] = s.rhsCols[c][oldI]
			}
		}
		if _, err := s.batch.SolveBatch(s.xI, s.bI); err != nil {
			panic(fmt.Sprintf("pdn: sparse batch step solve failed: %v", err))
		}
		for newI, oldI := range s.perm {
			for c := 0; c < m; c++ {
				s.vCols[c][oldI] = s.xI[newI*m+c]
			}
		}
	}
	for c := 0; c < s.m; c++ {
		for p, pad := range s.g.Pads {
			s.padCurCols[c][p] = s.padGeff[p] * (vdd - s.vCols[c][pad.Node] + s.padLh[p]*s.padCurCols[c][p])
		}
	}
	return s.vCols
}

// RunAll integrates steps time steps for every column, settling each column
// first at the DC point of its first step's currents. currentAt(c, t) must
// return column c's per-block currents at step t; onStep(c, t, v) receives
// each column's node voltages after every step (same aliasing rule as
// Step). onStep may be nil.
func (s *BatchSimulator) RunAll(steps int, currentAt func(c, t int) []float64, onStep func(c, t int, v []float64)) error {
	loaders := make([]*BlockLoader, s.m)
	loads := make([][]float64, s.m)
	for c := range loaders {
		loaders[c] = NewBlockLoader(s.g)
	}
	if steps > 0 {
		for c := 0; c < s.m; c++ {
			if err := s.SettleColumn(c, loaders[c].Loads(currentAt(c, 0))); err != nil {
				return err
			}
		}
	}
	for t := 0; t < steps; t++ {
		for c := 0; c < s.m; c++ {
			loads[c] = loaders[c].Loads(currentAt(c, t))
		}
		vs := s.Step(loads)
		if onStep != nil {
			for c := 0; c < s.m; c++ {
				onStep(c, t, vs[c])
			}
		}
	}
	return nil
}
