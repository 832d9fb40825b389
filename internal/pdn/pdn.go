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
// grid through one matrix traversal per step. NewSimulator picks the
// backend automatically by bandwidth and storage; use NewSimulatorBackend
// or NewSimulatorOpts to force a choice.
// Pad inductors use the standard
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
	// Workers bounds the sparse backend's parallel kernel shares; 0 tracks
	// the mat pool default. Results are bitwise identical for any setting.
	Workers int
}

// meshSolver solves a constant SPD mesh system A·dst = rhs: the
// backward-Euler step system or the DC system. dst holds the starting guess
// on entry, which iterative backends use as the warm start; a direct
// backend ignores it and never fails. Implementations must not allocate.
type meshSolver interface {
	solveInto(dst, rhs []float64) error
}

// bandedSolver is the banded Cholesky factor of a mesh system whose nodes
// are numbered along the mesh's shorter axis, so the half-bandwidth is
// min(NX, NY) rather than NX. The renumbering is transparent: callers stay
// in row-major node order and solveInto maps through pos at the boundary.
type bandedSolver struct {
	chol *banded.CholFactor
	pos  []int     // pos[node] = row of node in the banded system
	buf  []float64 // right-hand side in banded order, solved in place
}

// newBandedSolver assembles and factors the symmetric mesh system with the
// given fully accumulated diagonal and −G between the ends of every mesh
// edge: the backward-Euler step system, or the DC system when diag holds
// the conductance degrees plus each pad's 1/R.
func newBandedSolver(g *grid.Grid, diag []float64) (*bandedSolver, error) {
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
		return nil, fmt.Errorf("pdn: system matrix not SPD: %w", err)
	}
	return &bandedSolver{chol: chol, pos: pos, buf: make([]float64, len(pos))}, nil
}

func (b *bandedSolver) solveInto(dst, rhs []float64) error {
	for node, p := range b.pos {
		b.buf[p] = rhs[node]
	}
	b.chol.SolveInPlace(b.buf)
	for node, p := range b.pos {
		dst[node] = b.buf[p]
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

// Simulator integrates one grid with a fixed time step.
type Simulator struct {
	g  *grid.Grid
	dt float64

	solver  meshSolver
	backend Backend
	dc      dcSolver

	cOverH  []float64 // C/h per node
	padGeff []float64 // effective pad conductance 1/(R + L/h)
	padLh   []float64 // L/h per pad

	v      []float64 // node voltages (state)
	padCur []float64 // pad branch currents (state)
	rhs    []float64 // scratch
	t      int
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
	backend := opts.Backend
	if dt <= 0 {
		return nil, fmt.Errorf("pdn: non-positive time step %g", dt)
	}
	n := g.NumNodes()
	s := &Simulator{
		g:       g,
		dt:      dt,
		cOverH:  make([]float64, n),
		padGeff: make([]float64, len(g.Pads)),
		padLh:   make([]float64, len(g.Pads)),
		v:       make([]float64, n),
		padCur:  make([]float64, len(g.Pads)),
		rhs:     make([]float64, n),
	}
	for i, c := range g.Caps {
		s.cOverH[i] = c / dt
	}
	for p, pad := range g.Pads {
		lh := pad.L / dt
		s.padLh[p] = lh
		s.padGeff[p] = 1 / (pad.R + lh)
	}
	if backend == Auto {
		backend = chooseBackend(g)
	}
	s.backend = backend
	s.dc = dcSolver{g: g, backend: backend, workers: opts.Workers}
	diag := stepDiag(g, s.cOverH, s.padGeff)
	switch backend {
	case Banded:
		solver, err := newBandedSolver(g, diag)
		if err != nil {
			return nil, err
		}
		s.solver = solver
	case Sparse:
		sys, err := newSparseSystem(g, diag)
		if err != nil {
			return nil, err
		}
		solver, err := newSparseSolver(sys, stepCGTol, opts.Workers)
		if err != nil {
			return nil, err
		}
		s.solver = solver
	default:
		return nil, fmt.Errorf("pdn: unknown backend %v", backend)
	}
	s.Reset()
	return s, nil
}

// Backend reports which solver path Step uses (never Auto: the automatic
// choice is resolved at construction).
func (s *Simulator) Backend() Backend { return s.backend }

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

// dcSolver settles a simulator at the DC operating point (inductors
// shorted, capacitors open). It builds the DC system on the first settle,
// so step-only simulators never pay for it, and keeps it: the banded
// backend factors it, the sparse backend builds the RCM-ordered system with
// its IC preconditioner and reuses one PCG solver at dcCGTol. Every solve
// starts from VDD on every node, never from the simulator's state, so a
// settle does not depend on what the simulator ran before.
type dcSolver struct {
	g       *grid.Grid
	backend Backend
	workers int
	solver  meshSolver // nil until the first settle
}

// settleInto writes the DC operating point for loads into v and each pad's
// steady-state current into padCur, using rhs as scratch. After the first
// call it allocates nothing.
func (d *dcSolver) settleInto(loads, v, padCur, rhs []float64) error {
	if d.solver == nil {
		var err error
		if d.solver, err = newDCSolver(d.g, d.backend, d.workers); err != nil {
			return err
		}
	}
	vdd := d.g.Cfg.VDD
	dcRHS(d.g, loads, rhs)
	for i := range v {
		v[i] = vdd
	}
	if err := d.solver.solveInto(v, rhs); err != nil {
		return fmt.Errorf("pdn: DC settle: %w", err)
	}
	for p, pad := range d.g.Pads {
		padCur[p] = (vdd - v[pad.Node]) / pad.R
	}
	return nil
}

// newDCSolver builds the DC system solver for the given backend.
func newDCSolver(g *grid.Grid, backend Backend, workers int) (meshSolver, error) {
	if backend == Banded {
		b, err := newBandedSolver(g, dcDiag(g))
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	sys, err := newSparseSystem(g, dcDiag(g))
	if err != nil {
		return nil, err
	}
	s, err := newSparseSolver(sys, dcCGTol, workers)
	if err != nil {
		return nil, err
	}
	return s, nil
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

// DT returns the simulation time step in seconds.
func (s *Simulator) DT() float64 { return s.dt }

// StepCount returns the number of steps taken since the last Reset.
func (s *Simulator) StepCount() int { return s.t }

// Reset returns the simulator to the quiescent state: every node at VDD,
// no pad current flowing.
func (s *Simulator) Reset() {
	for i := range s.v {
		s.v[i] = s.g.Cfg.VDD
	}
	for i := range s.padCur {
		s.padCur[i] = 0
	}
	s.t = 0
}

// Step advances one time step with loads[i] amps drawn from node i, and
// returns the node voltages. The returned slice is the simulator's internal
// state: it is valid only until the next Step or Reset call, and must not be
// modified.
func (s *Simulator) Step(loads []float64) []float64 {
	n := len(s.v)
	if len(loads) != n {
		panic(fmt.Sprintf("pdn: loads length %d, want %d", len(loads), n))
	}
	vdd := s.g.Cfg.VDD
	for i := 0; i < n; i++ {
		s.rhs[i] = s.cOverH[i]*s.v[i] - loads[i]
	}
	for p, pad := range s.g.Pads {
		s.rhs[pad.Node] += s.padGeff[p] * (vdd + s.padLh[p]*s.padCur[p])
	}
	if err := s.solver.solveInto(s.v, s.rhs); err != nil {
		// The system matrix is constant and SPD with a preconditioner built
		// for it; failure here means the simulator was mis-assembled, which
		// is a programming error like the shape panics elsewhere in this
		// package.
		panic(fmt.Sprintf("pdn: step solve failed: %v", err))
	}
	for p, pad := range s.g.Pads {
		s.padCur[p] = s.padGeff[p] * (vdd - s.v[pad.Node] + s.padLh[p]*s.padCur[p])
	}
	s.t++
	return s.v
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

// Settle initializes the simulator state to the DC operating point for the
// given node loads: node voltages from the resistive solve (inductors
// shorted) and pad currents carrying their steady-state share. The first
// call builds the DC system on the simulator's backend; every call then
// solves it from the same fixed start, so the result depends only on loads
// and allocates nothing after the first call. Starting a transient from
// Settle avoids the unphysical inrush collapse of switching a fully loaded
// chip onto an unenergized package.
func (s *Simulator) Settle(loads []float64) error {
	if err := s.dc.settleInto(loads, s.v, s.padCur, s.rhs); err != nil {
		return err
	}
	s.t = 0
	return nil
}

// Run integrates steps time steps, settling first at the DC operating point
// of the first step's currents. For each step it calls currentAt(t) to get
// per-block currents, then onStep(t, v) with the resulting node voltages
// (the slice obeys the same aliasing rule as Step). onStep may be nil when
// only final state matters.
func (s *Simulator) Run(steps int, currentAt func(t int) []float64, onStep func(t int, v []float64)) error {
	loader := NewBlockLoader(s.g)
	if steps > 0 {
		if err := s.Settle(loader.Loads(currentAt(0))); err != nil {
			return err
		}
	}
	for t := 0; t < steps; t++ {
		v := s.Step(loader.Loads(currentAt(t)))
		if onStep != nil {
			onStep(t, v)
		}
	}
	return nil
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
