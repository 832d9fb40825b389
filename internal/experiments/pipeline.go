package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"voltsense/internal/core"
	"voltsense/internal/floorplan"
	"voltsense/internal/grid"
	"voltsense/internal/mat"
	"voltsense/internal/pdn"
	"voltsense/internal/power"
	"voltsense/internal/thermal"
	"voltsense/internal/uarch"
	"voltsense/internal/workload"
)

// Run indices keep the pseudo-random workload streams of the pipeline's
// phases disjoint: a model must never be evaluated on the run it was trained
// on.
const (
	runTrain = 0
	runTest  = 1
	runCalib = 2
	runTrace = 3
)

// SampleSet holds voltage maps restricted to the rows the methodology needs:
// every blank-area candidate and every block's critical node.
type SampleSet struct {
	CandV *mat.Matrix // M-by-N candidate-node voltages
	CritV *mat.Matrix // K-by-N critical-node voltages
	Bench []int       // benchmark index of each sample column
}

// N returns the sample count.
func (s *SampleSet) N() int { return s.CandV.Cols() }

// Pipeline is a fully built experimental substrate. Build one with New and
// reuse it across experiments: all results derive deterministically from the
// Config.
type Pipeline struct {
	Cfg   Config
	Chip  *floorplan.Chip
	Grid  *grid.Grid
	Power *power.Model
	Bench []workload.Benchmark

	// CritNodes[b] is the grid node chosen as block b's noise-critical node
	// (the worst-droop node of the block during the calibration scan).
	CritNodes []int

	Train       *SampleSet   // pooled training maps across all benchmarks
	TestByBench []*SampleSet // held-out maps, one set per benchmark

	placeMu    sync.Mutex // guards placeCache and pathState map structure
	placeCache map[placeKey]*CorePlacement
	pathState  map[int]*corePathState // per-core warm-started path solvers

	// simPools recycles BatchSimulators across benchmark runs, one
	// *sync.Pool per width: the factorization dominates short runs, and
	// RunAll re-settles every column, so reuse is exact.
	simPools sync.Map

	thermalOnce sync.Once
	thermalM    *thermal.Model
	thermalErr  error
}

// New builds the pipeline: calibration scan, training runs, and test runs.
func New(cfg Config) (*Pipeline, error) {
	chip := floorplan.New(cfg.Chip)
	grd := grid.Build(chip, cfg.Grid)
	pm := power.DefaultModel(chip)
	p := &Pipeline{
		Cfg:        cfg,
		Chip:       chip,
		Grid:       grd,
		Power:      pm,
		Bench:      workload.Benchmarks(),
		placeCache: make(map[placeKey]*CorePlacement),
		pathState:  make(map[int]*corePathState),
	}
	if err := p.calibrateCriticalNodes(); err != nil {
		return nil, err
	}
	if err := p.collectTraining(); err != nil {
		return nil, err
	}
	if err := p.collectTest(); err != nil {
		return nil, err
	}
	return p, nil
}

// benchCurrents returns the block currents of run `run` of bench over steps
// steps: the activity trace from the configured source, through the power
// model, with the thermal leakage scale when ThermalFeedback is on. Every
// simulation of a benchmark takes its currents from here.
func (p *Pipeline) benchCurrents(bench workload.Benchmark, steps, run int) (*power.CurrentTrace, error) {
	var tr *workload.Trace
	switch p.Cfg.TraceSource {
	case TraceUarch:
		tr = &uarch.Generate(p.Chip, bench, steps, run).Trace
	default:
		tr = workload.Generate(p.Chip, bench, steps, run)
	}
	scale, err := p.leakScaleFor(tr)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", bench.Name, err)
	}
	return p.Power.CurrentsScaledLeakage(tr, scale), nil
}

// leakScaleFor runs the thermal fixed point on the trace's average power
// and returns the per-block leakage multipliers, or nil when the feedback
// is disabled.
func (p *Pipeline) leakScaleFor(tr *workload.Trace) ([]float64, error) {
	if !p.Cfg.ThermalFeedback {
		return nil, nil
	}
	th, err := p.thermalModel()
	if err != nil {
		return nil, err
	}
	nb := p.Chip.NumBlocks()
	dyn := make([]float64, nb)
	leak := make([]float64, nb)
	for b := 0; b < nb; b++ {
		var act, powered float64
		for t := 0; t < tr.Steps; t++ {
			act += tr.Activity[b][t]
			if !tr.Gated[b][t] {
				powered++
			}
		}
		n := float64(tr.Steps)
		dyn[b] = act / n * p.Power.Dynamic[b]
		leak[b] = powered / n * p.Power.Leakage[b]
	}
	_, scale, _ := th.Couple(dyn, leak, thermalRefTemp, 12)
	return scale, nil
}

// thermalRefTemp is the temperature at which power.Model's leakage numbers
// are quoted.
const thermalRefTemp = 70

func (p *Pipeline) thermalModel() (*thermal.Model, error) {
	p.thermalOnce.Do(func() {
		p.thermalM, p.thermalErr = thermal.New(p.Chip, thermal.DefaultConfig())
	})
	return p.thermalM, p.thermalErr
}

// workers returns the configured outer-loop parallelism: Config.Workers, or
// GOMAXPROCS when unset.
func (p *Pipeline) workers() int {
	if p.Cfg.Workers > 0 {
		return p.Cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachIndex runs fn(i) for every i in [0, n) on the mat worker pool,
// bounded by Config.Workers. Each share takes the next index from a shared
// counter until none is left, so one slow item never strands the rest of a
// contiguous range behind it. The shares run inside mat.ParallelFor, so a
// nested parallel section still degrades to inline work when the pool is
// saturated. fn must write only to index-owned slots; results then do not
// depend on scheduling.
func (p *Pipeline) forEachIndex(n int, fn func(i int)) {
	var next atomic.Int64
	mat.ParallelFor(n, 1, p.workers(), func(int, int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	})
}

// firstError returns the first non-nil error by index.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// simOpts maps the Config's solver knobs onto pdn.SimOptions.
func (p *Pipeline) simOpts() pdn.SimOptions {
	return pdn.SimOptions{
		Backend: p.Cfg.Backend,
		Workers: p.Cfg.SparseWorkers,
	}
}

// batchWidth resolves Config.BatchTraces into the number of benchmarks one
// BatchSimulator steps together, out of n: one under BatchOff; all n under
// BatchOn, and under BatchAuto on a mesh that resolves to Sparse, where the
// simulator splits its columns into one block per worker and every block's
// multi-RHS PCG amortizes matrix and factor streaming; and ⌈n/workers⌉
// under BatchAuto on Banded, one group per worker, each solved in
// interleaved sweeps of the factor. On banded the groups beat one
// simulator's blocks because a group's load spreading and recording run
// on its own worker, while RunAll runs every column's callbacks on the
// calling goroutine (DESIGN.md §10).
func (p *Pipeline) batchWidth(n int) int {
	switch {
	case p.Cfg.BatchTraces == BatchOff:
		return min(n, 1)
	case p.Cfg.BatchTraces == BatchOn, pdn.ResolveBackend(p.Grid, p.Cfg.Backend) == pdn.Sparse:
		return n
	}
	w := p.workers()
	return (n + w - 1) / w
}

// simPool returns the pool of BatchSimulators of the given width.
func (p *Pipeline) simPool(width int) *sync.Pool {
	pool, _ := p.simPools.LoadOrStore(width, new(sync.Pool))
	return pool.(*sync.Pool)
}

// acquireSim takes a BatchSimulator of the given width from its pool,
// building (and factoring) a fresh one only when the pool is empty. Return
// it with simPool(width).Put when the run completes.
func (p *Pipeline) acquireSim(width int) (*pdn.BatchSimulator, error) {
	if bs, ok := p.simPool(width).Get().(*pdn.BatchSimulator); ok {
		return bs, nil
	}
	return pdn.NewBatchSimulator(p.Grid, p.Cfg.DT, width, p.simOpts())
}

// runBenchmarks delivers the run-`run` post-warmup voltages of the given
// benchmarks (indices into Bench; nil means every benchmark) to
// onStep(bi, t, v). It is the pipeline's one trace-collection path: the
// benchmarks run in fixed index groups of batchWidth, each group stepped in
// lock step through a pooled BatchSimulator, and the groups are handed to
// the workers one at a time. Voltages are bitwise identical to one
// Simulator per benchmark at every width. Callbacks for different
// benchmarks may arrive interleaved or concurrently, so collectors must
// write only to benchmark-indexed slots; within one benchmark, t is
// ascending.
func (p *Pipeline) runBenchmarks(run, steps int, benches []int, onStep func(bi, t int, v []float64)) error {
	if benches == nil {
		benches = make([]int, len(p.Bench))
		for bi := range benches {
			benches[bi] = bi
		}
	}
	width := p.batchWidth(len(benches))
	if width == 0 {
		return nil
	}
	groups := (len(benches) + width - 1) / width
	errs := make([]error, groups)
	p.forEachIndex(groups, func(gi int) {
		group := benches[gi*width : min((gi+1)*width, len(benches))]
		errs[gi] = p.runGroup(run, p.Cfg.Warmup+steps, group, onStep)
	})
	return firstError(errs)
}

// runGroup simulates one group of benchmarks for total steps through one
// BatchSimulator, column c carrying benchmark group[c], and forwards every
// post-warmup step to onStep.
func (p *Pipeline) runGroup(run, total int, group []int, onStep func(bi, t int, v []float64)) error {
	cts := make([]*power.CurrentTrace, len(group))
	errs := make([]error, len(group))
	p.forEachIndex(len(group), func(c int) {
		cts[c], errs[c] = p.benchCurrents(p.Bench[group[c]], total, run)
	})
	if err := firstError(errs); err != nil {
		return err
	}
	bs, err := p.acquireSim(len(group))
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", p.Bench[group[0]].Name, err)
	}
	defer p.simPool(len(group)).Put(bs)
	cur := make([][]float64, len(group))
	for c := range cur {
		cur[c] = make([]float64, p.Chip.NumBlocks())
	}
	err = bs.RunAll(total, func(c, t int) []float64 {
		buf := cur[c]
		for b := range buf {
			buf[b] = cts[c].Currents[b][t]
		}
		return buf
	}, func(c, t int, v []float64) {
		if t >= p.Cfg.Warmup {
			onStep(group[c], t-p.Cfg.Warmup, v)
		}
	})
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", p.Bench[group[0]].Name, err)
	}
	return nil
}

// calibrateCriticalNodes picks, for every block, the mesh node with the
// worst droop over a short scan of every benchmark (the paper's "worst noise
// during a sampling simulation period").
func (p *Pipeline) calibrateCriticalNodes() error {
	droops := make([]*pdn.WorstDroop, len(p.Bench))
	for bi := range droops {
		droops[bi] = pdn.NewWorstDroop(p.Grid.NumNodes())
	}
	err := p.runBenchmarks(runCalib, p.Cfg.CalibSteps, nil, func(bi, _ int, v []float64) {
		droops[bi].Observe(v)
	})
	if err != nil {
		return err
	}
	merged := pdn.NewWorstDroop(p.Grid.NumNodes())
	for _, d := range droops {
		merged.Observe(d.Min)
	}
	p.CritNodes = make([]int, p.Chip.NumBlocks())
	for b, nodes := range p.Grid.BlockNodes {
		p.CritNodes[b] = merged.CriticalNode(nodes)
	}
	return nil
}

// collectTraining simulates the training run of every benchmark and records
// the pre-selected random sample steps, pooling them into Train.
func (p *Pipeline) collectTraining() error {
	rng := rand.New(rand.NewSource(p.Cfg.Seed))
	nb := len(p.Bench)
	perBench := p.Cfg.TrainMaps / nb
	if perBench < 1 {
		return fmt.Errorf("experiments: TrainMaps %d too small for %d benchmarks", p.Cfg.TrainMaps, nb)
	}
	if perBench > p.Cfg.TrainSteps {
		return fmt.Errorf("experiments: need %d maps/benchmark but only %d training steps", perBench, p.Cfg.TrainSteps)
	}
	total := perBench * nb
	m := len(p.Grid.Candidates)
	k := p.Chip.NumBlocks()
	cand := mat.Zeros(m, total)
	crit := mat.Zeros(k, total)
	benchIdx := make([]int, total)

	// Draw every benchmark's sampled steps up front (sequentially, so the
	// RNG stream — and therefore the dataset — is identical regardless of
	// worker count), assigning each benchmark a disjoint column range.
	picks := make([]map[int]int, len(p.Bench)) // step -> column
	col := 0
	for bi := range p.Bench {
		steps := rng.Perm(p.Cfg.TrainSteps)[:perBench]
		sort.Ints(steps)
		pick := make(map[int]int, perBench)
		for _, s := range steps {
			pick[s] = col
			benchIdx[col] = bi
			col++
		}
		picks[bi] = pick
	}
	err := p.runBenchmarks(runTrain, p.Cfg.TrainSteps, nil, func(bi, t int, v []float64) {
		c, ok := picks[bi][t]
		if !ok {
			return
		}
		p.recordColumn(cand, crit, c, v)
	})
	if err != nil {
		return err
	}
	p.Train = &SampleSet{CandV: cand, CritV: crit, Bench: benchIdx}
	return nil
}

// collectTest records TestSteps strided maps per benchmark from the held-out
// run.
func (p *Pipeline) collectTest() error {
	m := len(p.Grid.Candidates)
	k := p.Chip.NumBlocks()
	p.TestByBench = make([]*SampleSet, len(p.Bench))
	cols := make([]int, len(p.Bench))
	for bi := range p.Bench {
		benchIdx := make([]int, p.Cfg.TestSteps)
		for i := range benchIdx {
			benchIdx[i] = bi
		}
		p.TestByBench[bi] = &SampleSet{
			CandV: mat.Zeros(m, p.Cfg.TestSteps),
			CritV: mat.Zeros(k, p.Cfg.TestSteps),
			Bench: benchIdx,
		}
	}
	steps := p.Cfg.TestSteps * p.Cfg.TestStride
	return p.runBenchmarks(runTest, steps, nil, func(bi, t int, v []float64) {
		if t%p.Cfg.TestStride != 0 || cols[bi] >= p.Cfg.TestSteps {
			return
		}
		s := p.TestByBench[bi]
		p.recordColumn(s.CandV, s.CritV, cols[bi], v)
		cols[bi]++
	})
}

// recordColumn copies the candidate and critical rows of one voltage map
// into column c.
func (p *Pipeline) recordColumn(cand, crit *mat.Matrix, c int, v []float64) {
	for i, nd := range p.Grid.Candidates {
		cand.Set(i, c, v[nd])
	}
	for b, nd := range p.CritNodes {
		crit.Set(b, c, v[nd])
	}
}

// TestAll concatenates the per-benchmark test sets into one pooled set.
func (p *Pipeline) TestAll() *SampleSet {
	total := 0
	for _, s := range p.TestByBench {
		total += s.N()
	}
	m := len(p.Grid.Candidates)
	k := p.Chip.NumBlocks()
	cand := mat.Zeros(m, total)
	crit := mat.Zeros(k, total)
	bench := make([]int, 0, total)
	col := 0
	for _, s := range p.TestByBench {
		// Concatenate row segments with bulk copies instead of element-wise
		// At/Set: each source row is a contiguous slice landing at column
		// offset col of the pooled row.
		w := s.N()
		for i := 0; i < m; i++ {
			copy(cand.Row(i)[col:col+w], s.CandV.Row(i))
		}
		for i := 0; i < k; i++ {
			copy(crit.Row(i)[col:col+w], s.CritV.Row(i))
		}
		bench = append(bench, s.Bench...)
		col += w
	}
	return &SampleSet{CandV: cand, CritV: crit, Bench: bench}
}

// CoreBlocks returns the block IDs of core c, ascending.
func (p *Pipeline) CoreBlocks(c int) []int {
	out := make([]int, 0, floorplan.BlocksPerCore)
	for _, b := range p.Chip.Cores[c].Blocks {
		out = append(out, b.ID)
	}
	sort.Ints(out)
	return out
}

// CoreDataset restricts a sample set to one core: X = the core's candidate
// rows, F = the core's block rows. It returns the dataset plus the global
// candidate indices of its X rows.
func (p *Pipeline) CoreDataset(c int, s *SampleSet) (*core.Dataset, []int) {
	candIdx := p.Grid.CandidatesInCore(c)
	ds := &core.Dataset{
		X: s.CandV.SelectRows(candIdx),
		F: s.CritV.SelectRows(p.CoreBlocks(c)),
	}
	return ds, candIdx
}

// glTrainDataset caps the number of samples fed to the group-lasso solver;
// training columns are already randomly ordered across each benchmark, and
// the cap takes a benchmark-balanced stride so every workload stays
// represented.
func (p *Pipeline) glTrainDataset(c int) (*core.Dataset, []int) {
	ds, candIdx := p.CoreDataset(c, p.Train)
	return p.capSamples(ds), candIdx
}

// capSamples applies the GLSampleCap benchmark-balanced stride to a training
// dataset (columns are already randomly ordered within each benchmark).
func (p *Pipeline) capSamples(ds *core.Dataset) *core.Dataset {
	cap := p.Cfg.GLSampleCap
	if cap <= 0 || ds.X.Cols() <= cap {
		return ds
	}
	stride := ds.X.Cols() / cap
	cols := make([]int, 0, cap)
	for j := 0; j < ds.X.Cols() && len(cols) < cap; j += stride {
		cols = append(cols, j)
	}
	return ds.Subset(cols)
}

// ClearPlacementCache drops memoized per-core placements and warm-started
// path solvers, forcing the next experiment to re-run the solvers (used by
// benchmarks to measure real work).
func (p *Pipeline) ClearPlacementCache() {
	p.placeMu.Lock()
	p.placeCache = make(map[placeKey]*CorePlacement)
	p.pathState = make(map[int]*corePathState)
	p.placeMu.Unlock()
}

// BusiestBenchmark returns the index of the benchmark whose held-out run
// contains the most emergency samples — a sensible default subject for the
// Figure 4 sweep (the paper's "BM4" is anonymized; any emergency-rich
// benchmark shows the crossover).
func (p *Pipeline) BusiestBenchmark() int {
	best, bestFrac := 0, -1.0
	for bi, s := range p.TestByBench {
		if f := p.EmergencyFraction(s); f > bestFrac {
			best, bestFrac = bi, f
		}
	}
	return best
}

// EmergencyFraction reports the fraction of samples in s with at least one
// critical node below Vth — the base rate the detection experiments work
// against.
func (p *Pipeline) EmergencyFraction(s *SampleSet) float64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	cnt := 0
	for j := 0; j < n; j++ {
		for i := 0; i < s.CritV.Rows(); i++ {
			if s.CritV.At(i, j) < p.Cfg.Vth {
				cnt++
				break
			}
		}
	}
	return float64(cnt) / float64(n)
}
