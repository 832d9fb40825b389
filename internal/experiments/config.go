// Package experiments is the end-to-end harness that regenerates every table
// and figure of the paper's evaluation: it builds the chip, synthesizes the
// 19 workloads, runs the power-grid transient simulations, collects training
// and test voltage maps, and drives the placement/prediction/detection
// machinery from the other packages.
//
// The paper artifacts map as: Table 1 → Table1 (λ sweep, Section 3.1),
// Table 2 → Table2 (ME/WAE/TE vs Eagle-Eye, Section 3.2), Figures 1-4 →
// Figure1..Figure4. Beyond the paper, the Ablation* methods stress the
// methodology's assumptions — alternative selectors, imperfect sensors,
// process variation, workload holdout, closed-loop throttling, and
// AblationFaultTolerance, which fails placed sensors on the held-out data
// and compares feeding stuck readings to the primary Eq. 17 model against
// switching to the leave-k-out fallbacks served by internal/serve.
package experiments

import (
	"fmt"

	"voltsense/internal/floorplan"
	"voltsense/internal/grid"
	"voltsense/internal/lasso"
	"voltsense/internal/pdn"
	"voltsense/internal/sparse"
)

// BatchMode sets how many benchmarks' transients the pipeline steps
// together through one pdn.BatchSimulator during trace collection. The
// groups are spread across workers, and collected voltages are bitwise
// identical in every mode.
type BatchMode int

const (
	// BatchAuto steps every benchmark in one group when the resolved
	// backend is Sparse, where the simulator steps one column block per
	// worker and each block's multi-RHS PCG amortizes the dominant matrix
	// and factor memory streams, and one group per worker on Banded, each
	// group's columns solved in interleaved sweeps of the Cholesky factor.
	BatchAuto BatchMode = iota
	// BatchOn steps every benchmark in one group on either backend.
	BatchOn
	// BatchOff steps each benchmark through its own simulator.
	BatchOff
)

// String names the mode.
func (m BatchMode) String() string {
	switch m {
	case BatchAuto:
		return "auto"
	case BatchOn:
		return "on"
	case BatchOff:
		return "off"
	}
	return fmt.Sprintf("BatchMode(%d)", int(m))
}

// TraceSource selects which GEM5 substitute drives the pipeline.
type TraceSource int

// Trace sources.
const (
	// TraceMarkov is the phase-shaped stochastic activity generator
	// (package workload) — fast, the default.
	TraceMarkov TraceSource = iota
	// TraceUarch is the microarchitectural performance model (package
	// uarch): activity derived from instruction mix, issue limits, cache
	// misses and branch behaviour.
	TraceUarch
)

// String names the source.
func (s TraceSource) String() string {
	switch s {
	case TraceMarkov:
		return "markov"
	case TraceUarch:
		return "uarch"
	default:
		return fmt.Sprintf("TraceSource(%d)", int(s))
	}
}

// Config sizes the whole pipeline.
type Config struct {
	Chip floorplan.Config
	Grid grid.Config

	DT         float64 // transient step, seconds
	Warmup     int     // steps discarded at the start of every run
	TrainSteps int     // simulated post-warmup steps per benchmark (training run)
	TrainMaps  int     // voltage maps randomly sampled from the training runs
	TestSteps  int     // maps recorded per benchmark from the held-out run
	TestStride int     // record every TestStride-th step of the test run
	CalibSteps int     // steps per benchmark for the critical-node scan

	Seed        int64
	Workers     int         // parallel benchmark simulations; 0 = GOMAXPROCS
	TraceSource TraceSource // workload generator; default TraceMarkov
	// Backend selects the transient linear-solver backend for every
	// simulator the pipeline builds (pdn.Auto picks banded Cholesky for
	// narrow meshes and IC-preconditioned CG for wide ones; see
	// pdn.NewSimulatorBackend). Leave zero for Auto.
	Backend pdn.Backend
	// Precond is ignored: the sparse backend has one preconditioner,
	// modified IC(0) with a plain IC(0) fallback.
	Precond sparse.Precond
	// SparseWorkers bounds the transient engine's parallel work (0 = the
	// mat pool default, 1 = serial): the column blocks a
	// pdn.BatchSimulator steps concurrently on either backend, and on the
	// sparse backend the worker shares of each solver's row-partitioned
	// kernels (see pdn.SimOptions.Workers). Results are bitwise identical
	// across settings.
	SparseWorkers int
	// BatchTraces sets how many benchmarks the calibration, training and
	// test runs step together through one pdn.BatchSimulator: all of them
	// (BatchOn, or BatchAuto on Sparse, where the simulator itself splits
	// them into one block per worker), one group per worker (BatchAuto on
	// Banded) or one (BatchOff). Collected voltages are bitwise identical
	// either way.
	BatchTraces BatchMode
	// ThermalFeedback couples per-run average power to a steady-state
	// temperature map and scales block leakage accordingly (hotter blocks
	// leak more), deepening droops on hot benchmarks.
	ThermalFeedback bool
	Vth             float64 // emergency threshold, volts
	Threshold       float64 // group-norm selection threshold T
	GLSampleCap     int     // max training samples fed to the group-lasso solver
	Solver          lasso.Options

	Lambdas []float64 // the Table 1 λ sweep
}

// DefaultConfig mirrors the paper's experimental scale: the 8-core chip, 19
// benchmarks, 10,000 training maps and the λ ∈ {10..60} sweep. A full
// pipeline build takes on the order of a minute.
func DefaultConfig() Config {
	return Config{
		Chip:        floorplan.DefaultConfig(),
		Grid:        grid.DefaultConfig(),
		DT:          5e-10,
		Warmup:      100,
		TrainSteps:  1200,
		TrainMaps:   10000,
		TestSteps:   350,
		TestStride:  3,
		CalibSteps:  300,
		Seed:        1,
		Vth:         0.85,
		Threshold:   1e-3,
		GLSampleCap: 1500,
		Solver:      lasso.Options{MaxIter: 600, Tol: 1e-6},
		// The paper sweeps λ ∈ {10..60} on its grid; the equivalent sweep
		// on this substrate (same 2→16 sensors-per-core trajectory) sits at
		// smaller budgets because the candidate pools and correlation
		// structure differ. EXPERIMENTS.md records the mapping.
		Lambdas: []float64{2, 3, 4, 5, 6, 8},
	}
}

// QuickConfig is a reduced pipeline for tests and iterative development: a
// coarser mesh, fewer samples, looser solver budgets. It preserves every
// qualitative property (emergency rates, correlation structure) at ~10x
// lower cost.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Grid.NX, cfg.Grid.NY = 52, 23
	cfg.Warmup = 60
	cfg.TrainSteps = 500
	cfg.TrainMaps = 3000
	cfg.TestSteps = 120
	cfg.TestStride = 3
	cfg.CalibSteps = 150
	cfg.GLSampleCap = 800
	cfg.Solver = lasso.Options{MaxIter: 400, Tol: 1e-5}
	return cfg
}
