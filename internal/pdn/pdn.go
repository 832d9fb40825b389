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
// O(n·bw²) time and O(n·bw) memory are prohibitive. The sparse path
// preconditions with modified IC(0), falling back to plain IC(0) should a
// pivot break down, and runs its SpMV and vector kernels in parallel on the
// mat worker pool with bitwise-deterministic results at any worker count;
// SimOptions bounds the workers.
//
// BatchSimulator steps many independent transients on the same grid in
// lock step and is the one implementation of the step and of the DC
// settle; a Simulator is a one-column batch. It splits its columns into one
// contiguous block per worker, and a block solves all its columns at once:
// one interleaved sweep of the banded factor, or one blocked multi-RHS PCG
// (sparse.BatchCGSolver, the engine's only PCG) with one matrix traversal
// per iteration. Each backend settles the way it steps: on the first
// settle a simulator builds the DC system (inductors shorted, capacitors
// open) in the step system's row order — a second banded factor, or the
// DC matrix in the step system's RCM order with its own modified-IC(0)
// factor — and a block settles its columns in one solve of it, through the
// same buffers and kernels it steps them with, starting from VDD. Step and
// settle differ only in the right-hand side, the start and the pad update.
// NewSimulator picks the backend automatically by bandwidth and storage;
// use NewSimulatorBackend or NewSimulatorOpts to force a choice. Pad
// inductors use the standard backward-Euler companion model: an effective
// conductance 1/(R + L/h) plus a history current source tracking the
// previous branch current.
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

// shortAxisOrder numbers the nodes along the mesh's shorter axis:
// pos[node] is the node's row in the banded systems, whose half-bandwidth
// is then min(NX, NY) rather than NX.
func shortAxisOrder(g *grid.Grid) []int {
	nx, ny := g.Cfg.NX, g.Cfg.NY
	pos := make([]int, g.NumNodes())
	for node := range pos {
		pos[node] = node
		if ny < nx {
			pos[node] = (node%nx)*ny + node/nx
		}
	}
	return pos
}

// factorBanded assembles and factors the symmetric mesh system with the
// given fully accumulated diagonal and −G between the ends of every mesh
// edge, node i at row pos[i]: the backward-Euler step system, or the DC
// system when diag holds the conductance degrees plus each pad's 1/R.
func factorBanded(g *grid.Grid, diag []float64, pos []int) (*banded.CholFactor, error) {
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
	return chol, nil
}

// sparseSystem is an RCM-permuted CSR mesh system: the matrix P·A·Pᵀ, the
// permutation that built it, and the preconditioner factored for the
// permuted matrix.
type sparseSystem struct {
	a    *sparse.CSR
	perm []int // perm[row] = node
	pre  *sparse.IC
}

// newSparseSystem assembles the mesh matrix with the given fully
// accumulated diagonal (step or DC system) and orders it by perm, or when
// perm is nil by reverse Cuthill–McKee (tight bands mean cache-local SpMV
// and IC sweep gathers, whatever order the mesh was numbered in). The DC
// system reuses the step system's permutation: the two share one
// structure, and RCM reads nothing else. It then factors the
// preconditioner: modified IC(0), which keeps the preconditioned condition
// number O(h⁻¹) on refined meshes, or plain IC(0) on the rare breakdown.
func newSparseSystem(g *grid.Grid, diag []float64, perm []int) (*sparseSystem, error) {
	a := assembleSystemCSR(g, diag)
	if perm == nil {
		perm = sparse.RCM(a)
	}
	pa := sparse.PermuteSym(a, perm)
	ic, err := sparse.NewICModified(pa, micOmega)
	if err != nil {
		if ic, err = sparse.NewIC(pa); err != nil {
			return nil, fmt.Errorf("pdn: system matrix not SPD: %w", err)
		}
	}
	return &sparseSystem{a: pa, perm: perm, pre: ic}, nil
}

// stepCGTol is the relative residual target of the sparse step solver,
// chosen so that iterative error stays below the 1e-9 golden-equivalence
// budget against the banded factor even after thousands of steps.
const stepCGTol = 1e-13

// dcCGTol is the relative residual target of the sparse DC settle, the
// same target the tests' independent DC solve converges to.
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
// solves it from VDD on every node, so the result depends only on loads
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
