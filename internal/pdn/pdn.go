// Package pdn is the power-grid transient engine: it integrates the mesh
// built by package grid under time-varying block currents and produces the
// node-voltage waveforms every experiment samples.
//
// Discretization is backward Euler. With node capacitances C, mesh
// conductances G and pad branches (series R, L to the ideal VDD rail), each
// step solves
//
//	(G + C/h + G_pad) v[t+1] = (C/h) v[t] + pad history + VDD injection − i_load[t+1]
//
// The system matrix is constant, symmetric positive definite and banded
// (half-bandwidth min(NX, NY) with the nodes numbered along the mesh's
// shorter axis). Two interchangeable step backends solve it: the banded
// Cholesky (factored once, every step a pair of triangular solves — the
// fast path for narrow meshes) and a preconditioned conjugate-gradient path
// over the RCM-reordered CSR matrix, warm-started from the previous step's
// voltages, which scales to 1024×1024+ meshes where the banded factor's
// O(n·bw²) time and O(n·bw) memory are prohibitive. Each backend settles
// the same way it steps: on the first Settle a simulator builds the DC
// system once — a second banded factor, or an RCM-ordered modified-IC(0)
// PCG solver — and every later Settle is one solve from a fixed start. The
// sparse path preconditions its step and DC systems alike with modified
// IC(0), falling back to plain IC(0) should a pivot break down, and runs
// its SpMV and vector kernels in parallel on the mat worker pool with
// bitwise-deterministic results at any worker count; SimOptions bounds the
// workers. BatchSimulator steps many independent transients on the same
// grid in lock step and is the one implementation of the step: on the
// sparse backend it splits its columns into one contiguous block per
// worker, steps the blocks concurrently, and solves each block's columns
// with one matrix traversal per PCG iteration. A Simulator is a one-column
// batch, which on the sparse backend steps through the single-RHS PCG its
// settle uses rather than a one-column batch PCG. NewSimulator picks the
// backend automatically by bandwidth and storage; use NewSimulatorBackend
// or NewSimulatorOpts to force a choice. Pad inductors use the standard
// backward-Euler companion model: an effective conductance 1/(R + L/h)
// plus a history current source tracking the previous branch current.
package pdn

import (
	"fmt"
	"math"

	"voltsense/internal/banded"
	"voltsense/internal/grid"
	"voltsense/internal/sparse"
)

// Backend selects the linear-solver path behind Step.
type Backend int

const (
	// Auto picks Banded for narrow meshes and Sparse when the bandwidth or
	// the factor's storage would make the banded path impractical.
	Auto Backend = iota
	// Banded is the dense banded Cholesky: one factorization, then two
	// triangular sweeps per step.
	Banded
	// Sparse is IC(0)-preconditioned conjugate gradient on the CSR matrix,
	// warm-started from the previous step's voltages.
	Sparse
)

// String names the backend for logs and flags.
func (b Backend) String() string {
	switch b {
	case Auto:
		return "auto"
	case Banded:
		return "banded"
	case Sparse:
		return "sparse"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend maps a flag value ("auto", "banded", "sparse") to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "auto":
		return Auto, nil
	case "banded":
		return Banded, nil
	case "sparse":
		return Sparse, nil
	}
	return Auto, fmt.Errorf("pdn: unknown backend %q (want auto, banded or sparse)", s)
}

// SimOptions configures simulator construction beyond the time step.
type SimOptions struct {
	// Backend forces a solver path; Auto resolves by bandwidth and storage.
	Backend Backend
	// Precond is ignored: the sparse backend has one preconditioner,
	// modified IC(0) with a plain IC(0) fallback.
	Precond sparse.Precond
	// Workers bounds the parallel work: in a BatchSimulator on either
	// backend, the number of column blocks stepped concurrently, and on
	// the sparse backend also the shares of each PCG kernel. 0 tracks the
	// mat pool default (the block count reads it at construction). Results
	// are bitwise identical for any setting.
	Workers int
}

// meshSolver solves a constant SPD mesh system A·dst = rhs: the
// backward-Euler step system or the DC system. dst holds the starting guess
// on entry, which iterative backends use as the warm start; a direct
// backend ignores it and never fails. Implementations must not allocate.
type meshSolver interface {
	solveInto(dst, rhs []float64) error
}

// bandedSolver solves one column block through the banded Cholesky factor
// of a mesh system whose nodes are numbered along the mesh's shorter axis,
// so the half-bandwidth is min(NX, NY) rather than NX. The renumbering is
// transparent: callers stay in row-major node order, and the solver
// gathers right-hand sides through pos into x, its block's columns
// interleaved in banded order at the stride the factor's sweep prefers.
// The blocks of a simulator share the factor and pos, read only, and each
// owns its x.
type bandedSolver struct {
	chol   *banded.CholFactor
	pos    []int     // pos[node] = row of node in the banded system
	stride int       // banded.ColumnStride of the block's width
	x      []float64 // element (row r, column c) at x[r*stride+c]; pad columns stay zero
}

// factorBanded assembles and factors the symmetric mesh system with the
// given fully accumulated diagonal and −G between the ends of every mesh
// edge: the backward-Euler step system, or the DC system when diag holds
// the conductance degrees plus each pad's 1/R. It returns the factor and
// the short-axis numbering pos.
func factorBanded(g *grid.Grid, diag []float64) (*banded.CholFactor, []int, error) {
	nx, ny := g.Cfg.NX, g.Cfg.NY
	pos := make([]int, g.NumNodes())
	for node := range pos {
		pos[node] = node
		if ny < nx {
			pos[node] = (node%nx)*ny + node/nx
		}
	}
	bw := 0
	for _, e := range g.Edges {
		d := pos[e.A] - pos[e.B]
		bw = max(bw, d, -d)
	}
	a := banded.NewSymBanded(len(pos), bw)
	for node, d := range diag {
		a.Set(pos[node], pos[node], d)
	}
	for _, e := range g.Edges {
		a.Add(pos[e.A], pos[e.B], -e.G)
	}
	chol, err := banded.Factor(a)
	if err != nil {
		return nil, nil, fmt.Errorf("pdn: system matrix not SPD: %w", err)
	}
	return chol, pos, nil
}

// newBandedSolver returns a solver for blocks of width columns over the
// shared factor and numbering.
func newBandedSolver(chol *banded.CholFactor, pos []int, width int) *bandedSolver {
	stride := banded.ColumnStride(width)
	return &bandedSolver{chol: chol, pos: pos, stride: stride, x: make([]float64, len(pos)*stride)}
}

// solveInto solves one right-hand side (a DC settle) in the block's first
// column.
func (b *bandedSolver) solveInto(dst, rhs []float64) error {
	x, w := b.x, b.stride
	for node, p := range b.pos {
		x[p*w] = rhs[node]
	}
	b.chol.SolveColsInPlace(x, w)
	for node, p := range b.pos {
		dst[node] = x[p*w]
	}
	return nil
}

// stepCols assembles the right-hand sides of columns [lo, hi) straight
// into the interleaved buffer in banded order, solves them in one sweep of
// the factor and scatters the voltages back into s.vCols.
func (b *bandedSolver) stepCols(s *BatchSimulator, lo, hi int, loads [][]float64) error {
	x, w := b.x, b.stride
	s.assemble(lo, hi, loads, x, b.pos, w)
	b.chol.SolveColsInPlace(x, w)
	vs := s.vCols[lo:hi]
	for node, p := range b.pos {
		row := x[p*w : p*w+len(vs)]
		for c, v := range vs {
			v[node] = row[c]
		}
	}
	return nil
}

// sparseSystem is the RCM-permuted CSR mesh system shared by the single and
// batch sparse solvers: the matrix P·A·Pᵀ, the permutation that built it,
// and the preconditioner factored for the permuted matrix. Reordering is
// transparent — callers stay in original node order and the solvers map
// through perm at the boundary.
type sparseSystem struct {
	a    *sparse.CSR
	perm []int // perm[newI] = oldI
	pre  *sparse.IC
}

// newSparseSystem assembles the mesh matrix with the given fully
// accumulated diagonal (step or DC system), applies reverse Cuthill–McKee
// (tight bands mean cache-local SpMV and IC sweep gathers, whatever order
// the mesh was numbered in), and factors the preconditioner: modified
// IC(0), which keeps the preconditioned condition number O(h⁻¹) on refined
// meshes, or plain IC(0) on the rare breakdown.
func newSparseSystem(g *grid.Grid, diag []float64) (*sparseSystem, error) {
	a := assembleSystemCSR(g, diag)
	perm := sparse.RCM(a)
	pa := sparse.PermuteSym(a, perm)
	ic, err := sparse.NewICModified(pa, micOmega)
	if err != nil {
		if ic, err = sparse.NewIC(pa); err != nil {
			return nil, fmt.Errorf("pdn: system matrix not SPD: %w", err)
		}
	}
	return &sparseSystem{a: pa, perm: perm, pre: ic}, nil
}

// sparseSolver runs warm-started PCG on the RCM-permuted system: the warm
// start and rhs are permuted in, the solution permuted back out, so callers
// never see the reordering.
type sparseSolver struct {
	cg     *sparse.CGSolver
	perm   []int
	xp, bp []float64
}

// newSparseSolver prepares PCG on sys to the relative residual tol, with
// the system's preconditioner and the given worker bound.
func newSparseSolver(sys *sparseSystem, tol float64, workers int) (*sparseSolver, error) {
	cg, err := sparse.NewCGSolver(sys.a, sparse.CGOptions{
		Tol: tol, Precond: sys.pre, Workers: workers,
	})
	if err != nil {
		return nil, fmt.Errorf("pdn: sparse solver: %w", err)
	}
	n := sys.a.Rows()
	return &sparseSolver{
		cg: cg, perm: sys.perm,
		xp: make([]float64, n), bp: make([]float64, n),
	}, nil
}

func (s *sparseSolver) solveInto(dst, rhs []float64) error {
	for newI, oldI := range s.perm {
		s.xp[newI] = dst[oldI]
		s.bp[newI] = rhs[oldI]
	}
	if _, err := s.cg.Solve(s.xp, s.bp); err != nil {
		return err
	}
	for newI, oldI := range s.perm {
		dst[oldI] = s.xp[newI]
	}
	return nil
}

// stepCols assembles and solves columns [lo, hi) of bs one after another;
// a one-column block steps through it.
func (s *sparseSolver) stepCols(bs *BatchSimulator, lo, hi int, loads [][]float64) error {
	for c := lo; c < hi; c++ {
		bs.assemble(c, c+1, loads, bs.rhsCols[c], nil, 1)
		if err := s.solveInto(bs.vCols[c], bs.rhsCols[c]); err != nil {
			return err
		}
	}
	return nil
}

// stepCGTol is the relative residual target of the sparse step solver,
// chosen so that iterative error stays below the 1e-9 golden-equivalence
// budget against the banded factor even after thousands of steps.
const stepCGTol = 1e-13

// dcCGTol is the relative residual target of the sparse DC settle, the
// same target StaticSolve converges to.
const dcCGTol = 1e-12

// micOmega is the relaxation of the modified-IC preconditioner, on the
// step system and the DC system alike. ω = 1 keeps every row sum exact;
// should a pivot break down, newSparseSystem falls back to plain IC(0).
const micOmega = 1.0

// sparseBandwidthLimit and sparseStorageLimit are the Auto thresholds:
// beyond either, the banded factor's O(n·bw²) time or O(n·bw) bytes lose
// to IC(0)-PCG (a 1024×1024 mesh would need an 8.6 GB factor and ~10¹²
// flops to factor it; the CSR holds ~5 nonzeros per node).
const (
	sparseBandwidthLimit = 256
	sparseStorageLimit   = 256 << 20 // bytes of banded factor
)

// chooseBackend judges by NX, the half-bandwidth of row-major numbering.
// The banded solver numbers along the shorter axis, so its actual band,
// min(NX, NY), can be narrower: on short, wide meshes the rule leans to
// sparse.
func chooseBackend(g *grid.Grid) Backend {
	bw := g.Cfg.NX
	n := g.NumNodes()
	if bw > sparseBandwidthLimit || int64(n)*int64(bw+1)*8 > sparseStorageLimit {
		return Sparse
	}
	return Banded
}

// ResolveBackend reports the concrete backend a simulator built with b on g
// would use: b itself, or the automatic bandwidth/storage choice when b is
// Auto. Callers (batched trace collection) use it to decide strategy before
// paying for construction.
func ResolveBackend(g *grid.Grid, b Backend) Backend {
	if b == Auto {
		return chooseBackend(g)
	}
	return b
}

// Simulator integrates one grid with a fixed time step: a one-column
// BatchSimulator behind a single-transient API.
type Simulator struct {
	b     *BatchSimulator
	loads [][]float64 // Step's one-column argument, reused
}

// NewSimulator assembles and factors the backward-Euler system for the grid
// at time step dt (seconds), picking the solver backend automatically.
func NewSimulator(g *grid.Grid, dt float64) (*Simulator, error) {
	return NewSimulatorBackend(g, dt, Auto)
}

// NewSimulatorBackend is NewSimulator with an explicit solver backend.
func NewSimulatorBackend(g *grid.Grid, dt float64, backend Backend) (*Simulator, error) {
	return NewSimulatorOpts(g, dt, SimOptions{Backend: backend})
}

// NewSimulatorOpts is NewSimulator with full backend and worker control.
func NewSimulatorOpts(g *grid.Grid, dt float64, opts SimOptions) (*Simulator, error) {
	b, err := NewBatchSimulator(g, dt, 1, opts)
	if err != nil {
		return nil, err
	}
	return &Simulator{b: b, loads: make([][]float64, 1)}, nil
}

// Backend reports which solver path Step uses (never Auto: the automatic
// choice is resolved at construction).
func (s *Simulator) Backend() Backend { return s.b.backend }

// Reset returns the simulator to the quiescent state: every node at VDD,
// no pad current flowing.
func (s *Simulator) Reset() { s.b.Reset() }

// Step advances one time step with loads[i] amps drawn from node i, and
// returns the node voltages. The returned slice is the simulator's internal
// state: it is valid only until the next Step or Reset call, and must not be
// modified.
func (s *Simulator) Step(loads []float64) []float64 {
	s.loads[0] = loads
	return s.b.Step(s.loads)[0]
}

// Settle initializes the simulator state to the DC operating point for the
// given node loads: node voltages from the resistive solve (inductors
// shorted) and pad currents carrying their steady-state share. The first
// call builds the DC system on the simulator's backend; every call then
// solves it from the same fixed start, so the result depends only on loads
// and allocates nothing after the first call. Starting a transient from
// Settle avoids the unphysical inrush collapse of switching a fully loaded
// chip onto an unenergized package.
func (s *Simulator) Settle(loads []float64) error { return s.b.SettleColumn(0, loads) }

// stepDiag accumulates the fully summed diagonal of the backward-Euler
// system matrix: C/h + mesh conductance degree + effective pad conductance.
func stepDiag(g *grid.Grid, cOverH, padGeff []float64) []float64 {
	diag := make([]float64, len(cOverH))
	copy(diag, cOverH)
	for _, e := range g.Edges {
		diag[e.A] += e.G
		diag[e.B] += e.G
	}
	for p, pad := range g.Pads {
		diag[pad.Node] += padGeff[p]
	}
	return diag
}

// dcDiag accumulates the diagonal of the DC system (inductors shorted,
// capacitors open): mesh conductance degree + each pad's 1/R.
func dcDiag(g *grid.Grid) []float64 {
	diag := make([]float64, g.NumNodes())
	for _, e := range g.Edges {
		diag[e.A] += e.G
		diag[e.B] += e.G
	}
	for _, pad := range g.Pads {
		diag[pad.Node] += 1 / pad.R
	}
	return diag
}

// dcRHS writes the DC system's right-hand side for the given node loads
// into b: each load drawn out of its node, each pad injecting VDD/R.
func dcRHS(g *grid.Grid, loads, b []float64) {
	if len(loads) != len(b) {
		panic(fmt.Sprintf("pdn: loads length %d, want %d", len(loads), len(b)))
	}
	for i, ld := range loads {
		b[i] = -ld
	}
	for _, pad := range g.Pads {
		gdc := 1 / pad.R // the inductor is a short at DC
		b[pad.Node] += gdc * g.Cfg.VDD
	}
}

// newDCSolvers builds the DC system (inductors shorted, capacitors open)
// once and k solvers over it, one per column block, so blocks can settle
// concurrently: on banded its factor, shared by k one-column buffers; on
// sparse the RCM-ordered system with its IC preconditioner, shared by k PCG
// workspaces at dcCGTol.
func newDCSolvers(g *grid.Grid, backend Backend, workers, k int) ([]meshSolver, error) {
	solvers := make([]meshSolver, k)
	if backend == Banded {
		chol, pos, err := factorBanded(g, dcDiag(g))
		if err != nil {
			return nil, err
		}
		for i := range solvers {
			solvers[i] = newBandedSolver(chol, pos, 1)
		}
		return solvers, nil
	}
	sys, err := newSparseSystem(g, dcDiag(g))
	if err != nil {
		return nil, err
	}
	for i := range solvers {
		if solvers[i], err = newSparseSolver(sys, dcCGTol, workers); err != nil {
			return nil, err
		}
	}
	return solvers, nil
}

// settleInto writes the DC operating point for loads into v and each pad's
// steady-state current into padCur, solving with dc and using rhs as
// scratch. The solve starts from VDD on every node, never from the
// simulator's state, so a settle does not depend on what the simulator ran
// before. It allocates nothing.
func settleInto(g *grid.Grid, dc meshSolver, loads, v, padCur, rhs []float64) error {
	vdd := g.Cfg.VDD
	dcRHS(g, loads, rhs)
	for i := range v {
		v[i] = vdd
	}
	if err := dc.solveInto(v, rhs); err != nil {
		return fmt.Errorf("pdn: DC settle: %w", err)
	}
	for p, pad := range g.Pads {
		padCur[p] = (vdd - v[pad.Node]) / pad.R
	}
	return nil
}

// assembleSystemCSR builds the symmetric system matrix directly in CSR
// form: diag supplies the fully accumulated diagonal and every edge
// contributes −G at (A,B) and (B,A). Direct assembly sidesteps the
// map-based Triplet accumulator, which is far too slow for million-node
// meshes.
func assembleSystemCSR(g *grid.Grid, diag []float64) *sparse.CSR {
	n := g.NumNodes()
	rowPtr := make([]int, n+1)
	for i := range diag {
		rowPtr[i+1] = 1 // diagonal
	}
	for _, e := range g.Edges {
		rowPtr[e.A+1]++
		rowPtr[e.B+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	nnz := rowPtr[n]
	colIdx := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, n)
	copy(next, rowPtr[:n])
	put := func(i, j int, v float64) {
		colIdx[next[i]] = j
		val[next[i]] = v
		next[i]++
	}
	for i, d := range diag {
		put(i, i, d)
	}
	for _, e := range g.Edges {
		put(e.A, e.B, -e.G)
		put(e.B, e.A, -e.G)
	}
	// Each row holds at most a diagonal plus four mesh neighbors; insertion
	// sort restores the ascending column order NewCSR requires.
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		for a := lo + 1; a < hi; a++ {
			c, v := colIdx[a], val[a]
			b := a
			for b > lo && colIdx[b-1] > c {
				colIdx[b], val[b] = colIdx[b-1], val[b-1]
				b--
			}
			colIdx[b], val[b] = c, v
		}
	}
	return sparse.NewCSR(n, n, rowPtr, colIdx, val)
}

// BlockLoader spreads per-block currents onto mesh nodes: block b's draw
// divides equally among grid.BlockNodes[b].
type BlockLoader struct {
	g     *grid.Grid
	loads []float64
}

// NewBlockLoader returns a loader for g.
func NewBlockLoader(g *grid.Grid) *BlockLoader {
	return &BlockLoader{g: g, loads: make([]float64, g.NumNodes())}
}

// Loads converts block currents (amps, indexed by block ID) to node loads.
// The returned slice is reused across calls.
func (l *BlockLoader) Loads(blockCurrents []float64) []float64 {
	if len(blockCurrents) != len(l.g.BlockNodes) {
		panic(fmt.Sprintf("pdn: %d block currents, grid has %d blocks", len(blockCurrents), len(l.g.BlockNodes)))
	}
	for i := range l.loads {
		l.loads[i] = 0
	}
	for b, cur := range blockCurrents {
		nodes := l.g.BlockNodes[b]
		share := cur / float64(len(nodes))
		for _, nd := range nodes {
			l.loads[nd] += share
		}
	}
	return l.loads
}

// StaticSolve computes the DC operating point for constant node loads
// (inductors shorted, capacitors open) with an independent one-shot
// conjugate-gradient solve: natural node order, plain IC(0), cold start.
// It is the cross-check oracle for the transient engine: a constant-load
// transient, and either backend's Settle, must land on this solution.
func StaticSolve(g *grid.Grid, loads []float64) ([]float64, error) {
	b := make([]float64, g.NumNodes())
	dcRHS(g, loads, b)
	a := assembleSystemCSR(g, dcDiag(g))
	x, _, err := sparse.SolveCG(a, b, nil, sparse.CGOptions{Tol: 1e-12})
	if err != nil {
		return nil, fmt.Errorf("pdn: static solve: %w", err)
	}
	return x, nil
}

// WorstDroop tracks the minimum voltage seen at every node across a run;
// the paper uses it to pick each block's noise-critical node.
type WorstDroop struct {
	Min []float64
}

// NewWorstDroop returns a tracker for n nodes, initialized to +Inf.
func NewWorstDroop(n int) *WorstDroop {
	w := &WorstDroop{Min: make([]float64, n)}
	for i := range w.Min {
		w.Min[i] = math.Inf(1)
	}
	return w
}

// Observe folds one voltage snapshot into the tracker.
func (w *WorstDroop) Observe(v []float64) {
	for i, x := range v {
		if x < w.Min[i] {
			w.Min[i] = x
		}
	}
}

// CriticalNode returns the node among nodes with the lowest observed
// voltage — the block's noise-critical node.
func (w *WorstDroop) CriticalNode(nodes []int) int {
	best, bestV := -1, math.Inf(1)
	for _, nd := range nodes {
		if w.Min[nd] < bestV {
			best, bestV = nd, w.Min[nd]
		}
	}
	if best < 0 {
		panic("pdn: CriticalNode called with empty node list")
	}
	return best
}
