package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"voltsense/internal/core"
	"voltsense/internal/detect"
	"voltsense/internal/eagleeye"
	"voltsense/internal/experiments"
	"voltsense/internal/floorplan"
	"voltsense/internal/grid"
	"voltsense/internal/lasso"
	"voltsense/internal/mat"
	"voltsense/internal/ols"
	"voltsense/internal/pdn"
	"voltsense/internal/power"
	"voltsense/internal/workload"
)

// campaignResult is everything the campaign gate compares.
type campaignResult struct {
	CritNodes  []int   `json:"crit_nodes,omitempty"`
	Table1     []t1Row `json:"table1"`
	Selections [][]int `json:"selections"` // chip-wide sensor union per λ
	Q2Union    []int   `json:"q2_union"`   // Table 2 sensor union
	Table2     []t2Row `json:"table2"`

	blockNodes [][]int // the mesh nodes of each block, for the invariant checks
}

type t1Row struct {
	Lambda       float64 `json:"lambda"`
	SensorsCore0 int     `json:"sensors_core0"`
	TotalSensors int     `json:"total_sensors"`
	RelErrPct    float64 `json:"relerr_pct"`
}

type t2Row struct {
	Bench    string     `json:"bench"`
	EagleEye [3]float64 `json:"eagle_eye"` // ME, WAE, TE
	Proposed [3]float64 `json:"proposed"`
}

func rates(r detect.Rates) [3]float64 { return [3]float64{r.ME, r.WAE, r.TE} }

// meanTE averages the TE column of Table 2 for both approaches.
func (c *campaignResult) meanTE() (eagle, proposed float64) {
	for _, r := range c.Table2 {
		eagle += r.EagleEye[2] / float64(len(c.Table2))
		proposed += r.Proposed[2] / float64(len(c.Table2))
	}
	return eagle, proposed
}

// pipelineSeed is the pipeline seed of the r-th campaign of a run: the run
// seed itself first, so references at seeds 1 and 2 cover every run's first
// campaign.
func pipelineSeed(seed int64, r int) int64 { return seed + int64(r)*1_000_003 }

// campaignOnce runs the path `voltmap -full` runs: the substrate build,
// Table 1 and Table 2. Only that is timed; reading back the cached
// placements for the gate is not.
func campaignOnce(cfg experiments.Config, q int) (*campaignResult, time.Duration, error) {
	t0 := time.Now()
	p, err := experiments.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	d1, err := p.Table1(nil)
	if err != nil {
		return nil, 0, err
	}
	d2, err := p.Table2(q)
	if err != nil {
		return nil, 0, err
	}
	wall := time.Since(t0)

	res := &campaignResult{CritNodes: p.CritNodes, blockNodes: p.Grid.BlockNodes}
	for _, r := range d1.Rows {
		res.Table1 = append(res.Table1, t1Row{r.Lambda, r.SensorsCore0, r.TotalSensors, r.RelErrorPercent})
	}
	byLambda, err := p.ChipPlacementPath(cfg.Lambdas)
	if err != nil {
		return nil, 0, err
	}
	for _, pls := range byLambda {
		res.Selections = append(res.Selections, unionOf(pls))
	}
	if _, res.Q2Union, err = p.ChipPlacementCount(q); err != nil {
		return nil, 0, err
	}
	for _, r := range d2.Rows {
		res.Table2 = append(res.Table2, t2Row{r.Bench, rates(r.EagleEye), rates(r.Proposed)})
	}
	return res, wall, nil
}

func unionOf(pls []*experiments.CorePlacement) []int {
	union := []int{}
	for _, pl := range pls {
		union = append(union, pl.CandIdx...)
	}
	sort.Ints(union)
	return union
}

// runCampaign is the campaign workload. A campaign builds everything it
// uses, so the run's set-up is the process's start and one untimed warm-up
// campaign through the same code, gated like the measured ones: setup_s is
// the time from process start to the first measured campaign.
func runCampaign(rc runConfig) (*outcome, error) {
	out := &outcome{e2e: metrics{}, layer: metrics{}, detail: metrics{}}
	cfg := rc.sc.campaign
	check := func(res *campaignResult, pseed int64) {
		checkCampaign(out, rc.ref, res, pseed)
	}
	warm := cfg
	warm.Seed = pipelineSeed(rc.seed, 0)
	out.attempted++
	res, _, err := campaignOnce(warm, rc.sc.tableQ)
	if err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	out.gate(func() { check(res, warm.Seed) })
	runtime.GC()
	out.e2e.set("setup_s", "s", time.Since(processStart).Seconds())

	if rc.trace {
		return out, traceCampaign(rc, out, check)
	}

	var walls []float64
	start := time.Now()
	for r := 0; r == 0 || time.Since(start).Seconds()+median(walls) <= rc.seconds; r++ {
		rc.probe.sample()
		c := cfg
		c.Seed = pipelineSeed(rc.seed, r)
		out.attempted++
		res, wall, err := campaignOnce(c, rc.sc.tableQ)
		if err != nil {
			out.failed++
			out.fail("campaign %d: %v", r, err)
			break
		}
		walls = append(walls, wall.Seconds())
		out.gate(func() { check(res, c.Seed) })
		if r == 0 {
			eagle, prop := res.meanTE()
			out.detail.set("campaign_relerr_pct", "%", res.Table1[len(res.Table1)-1].RelErrPct)
			out.detail.set("campaign_te", "frac", prop)
			out.detail.set("campaign_eagle_te", "frac", eagle)
		}
		runtime.GC()
	}
	rc.probe.sample()
	if len(walls) == 0 {
		return out, nil
	}
	p50 := median(walls)
	worst, _ := tail(walls)
	out.e2e.set("op_p50_ms", "ms", p50*1e3)
	out.e2e.set("op_tail_ms", "ms", worst*1e3)
	out.e2e.set("rate_per_s", "1/s", float64(len(walls))/sum(walls))
	out.detail.set("campaign_s", "s", p50)
	out.detail.set("campaigns", "count", float64(len(walls)))
	return out, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// checkCampaign is the gate of a measured campaign: the seed-independent
// critical nodes always, the stored reference where one exists for the
// pipeline seed, and the invariants.
func checkCampaign(out *outcome, ref *reference, res *campaignResult, pseed int64) {
	if ref.Campaign.CritNodes != nil && !slices.Equal(res.CritNodes, ref.Campaign.CritNodes) {
		out.fail("critical nodes differ from the reference")
	}
	if want, ok := ref.Campaign.Seeds[seedKey(pseed)]; ok {
		compareCampaign(out, "reference", want, res, 1e-9)
	}
	checkInvariants(out, res)
}

// checkInvariants is the part of the campaign gate that holds at every
// seed and scale: critical nodes inside their blocks, finite positive
// errors, more sensors at the largest λ than at the smallest, and mean
// proposed TE at most Eagle-Eye's.
//
// The sensor count grows with λ along the path, but not at every step: a
// group's norm can fall back under the selection threshold as the budget
// grows (44 sensors at λ=4, 41 at λ=5 for pipeline seed 3000020), so only
// the path's two ends are compared.
func checkInvariants(out *outcome, res *campaignResult) {
	for b, nd := range res.CritNodes {
		if b >= len(res.blockNodes) || !slices.Contains(res.blockNodes[b], nd) {
			out.fail("critical node %d of block %d lies outside the block", nd, b)
			break
		}
	}
	rows := append([]t1Row(nil), res.Table1...)
	sort.Slice(rows, func(a, b int) bool { return rows[a].Lambda < rows[b].Lambda })
	for _, r := range rows {
		if !finite(r.RelErrPct) || r.RelErrPct <= 0 {
			out.fail("Table 1 λ=%v: relative error %v is not a positive finite number", r.Lambda, r.RelErrPct)
		}
	}
	if n := len(rows); n > 1 && rows[n-1].TotalSensors <= rows[0].TotalSensors {
		out.fail("Table 1: %d sensors at λ=%v, not more than the %d at λ=%v",
			rows[n-1].TotalSensors, rows[n-1].Lambda, rows[0].TotalSensors, rows[0].Lambda)
	}
	eagle, prop := res.meanTE()
	if !finite(prop) || prop > eagle {
		out.fail("Table 2: mean proposed TE %v exceeds Eagle-Eye's %v", prop, eagle)
	}
}

// compareCampaign reports every difference between two campaign results;
// floating-point values may differ by at most tol. Critical nodes are
// compared when want has them.
func compareCampaign(out *outcome, what string, want, got *campaignResult, tol float64) {
	if want.CritNodes != nil && !slices.Equal(got.CritNodes, want.CritNodes) {
		out.fail("%s: critical nodes differ", what)
	}
	if len(got.Table1) != len(want.Table1) || len(got.Selections) != len(want.Selections) {
		out.fail("%s: Table 1 has %d rows, want %d", what, len(got.Table1), len(want.Table1))
		return
	}
	for i, w := range want.Table1 {
		g := got.Table1[i]
		if g.Lambda != w.Lambda || g.SensorsCore0 != w.SensorsCore0 || g.TotalSensors != w.TotalSensors || !near(g.RelErrPct, w.RelErrPct, tol) {
			out.fail("%s: Table 1 row %d is %+v, want %+v", what, i, g, w)
		}
		if !slices.Equal(got.Selections[i], want.Selections[i]) {
			out.fail("%s: selection at λ=%v differs", what, w.Lambda)
		}
	}
	if !slices.Equal(got.Q2Union, want.Q2Union) {
		out.fail("%s: Table 2 selection differs", what)
	}
	if len(got.Table2) != len(want.Table2) {
		out.fail("%s: Table 2 has %d rows, want %d", what, len(got.Table2), len(want.Table2))
		return
	}
	for i, w := range want.Table2 {
		g := got.Table2[i]
		ok := g.Bench == w.Bench
		for j := 0; j < 3; j++ {
			ok = ok && near(g.EagleEye[j], w.EagleEye[j], tol) && near(g.Proposed[j], w.Proposed[j], tol)
		}
		if !ok {
			out.fail("%s: Table 2 row %s is %+v, want %+v", what, w.Bench, g, w)
		}
	}
}

func near(a, b, tol float64) bool {
	return a == b || (finite(a) && finite(b) && math.Abs(a-b) <= tol)
}

// traceCampaign runs one untraced campaign for the outputs and the
// untraced wall time, then replays it through the layer calls under the
// tracer and requires the replay to reproduce every output exactly.
func traceCampaign(rc runConfig, out *outcome, check func(*campaignResult, int64)) error {
	cfg := rc.sc.campaign
	cfg.Seed = pipelineSeed(rc.seed, 0)
	before := memNow()
	out.attempted++
	res0, wall0, err := campaignOnce(cfg, rc.sc.tableQ)
	if err != nil {
		return err
	}
	runtimeMetrics(out.layer, before, 1)
	out.gate(func() { check(res0, cfg.Seed) })
	runtime.GC()

	tr := newTracer()
	out.tracer = tr
	t0 := time.Now()
	res1, err := replayCampaign(tr, cfg, rc.sc.tableQ)
	wall1 := time.Since(t0)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	out.gate(func() { compareCampaign(out, "traced replay", res0, res1, 0) })
	lt := layerMetrics(out.layer, tr, wall1)
	out.layer.set("trace.overhead_pct", "%", 100*(wall1.Seconds()-wall0.Seconds())/wall0.Seconds())
	spanDetail(out.detail, lt)
	out.detail.set("campaign_untraced_s", "s", wall0.Seconds())
	out.detail.set("campaign_traced_s", "s", wall1.Seconds())
	return nil
}

// The pipeline's run indices (unexported in package experiments): each
// phase draws its workload traces from its own stream.
const (
	runTrain = 0
	runTest  = 1
	runCalib = 2
)

// replayNew rebuilds experiments.New's substrate through the layer calls —
// workload.Generate, power.CurrentsScaledLeakage, pdn simulators — with a
// span around each, and returns it as a Pipeline value whose exported
// fields match what New would have built.
func replayNew(tr *tracer, parent int32, cfg experiments.Config) (*experiments.Pipeline, error) {
	if cfg.TraceSource != experiments.TraceMarkov || cfg.ThermalFeedback {
		return nil, errors.New("replay supports the Markov trace source without thermal feedback")
	}
	var p *experiments.Pipeline
	tr.do(parent, "grid.build", 0, func(int32) {
		chip := floorplan.New(cfg.Chip)
		grd := grid.Build(chip, cfg.Grid)
		p = &experiments.Pipeline{Cfg: cfg, Chip: chip, Grid: grd, Power: power.DefaultModel(chip), Bench: workload.Benchmarks()}
	})
	batched := cfg.BatchTraces == experiments.BatchOn ||
		(cfg.BatchTraces == experiments.BatchAuto && pdn.ResolveBackend(p.Grid, cfg.Backend) == pdn.Sparse)
	if batched {
		return nil, errors.New("replay supports per-benchmark simulation only (banded backend)")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sims := make(chan *pdn.Simulator, workers) // one reusable simulator per worker
	opts := pdn.SimOptions{Backend: cfg.Backend, Precond: cfg.Precond, Workers: cfg.SparseWorkers}
	nb, nblk := len(p.Bench), p.Chip.NumBlocks()

	simulate := func(bi, run, steps int, onStep func(bi, t int, v []float64)) error {
		total := cfg.Warmup + steps
		var trc *workload.Trace
		tr.do(parent, "workload.generate", 0, func(int32) { trc = workload.Generate(p.Chip, p.Bench[bi], total, run) })
		var ct *power.CurrentTrace
		tr.do(parent, "power.currents", 0, func(int32) { ct = p.Power.CurrentsScaledLeakage(trc, nil) })
		var sim *pdn.Simulator
		select {
		case sim = <-sims:
		default:
			var err error
			tr.do(parent, "pdn.build", 0, func(int32) { sim, err = pdn.NewSimulatorOpts(p.Grid, cfg.DT, opts) })
			if err != nil {
				return err
			}
		}
		defer func() { sims <- sim }()
		loader := pdn.NewBlockLoader(p.Grid)
		cur := make([]float64, nblk)
		loadsAt := func(t int) []float64 {
			for b := range cur {
				cur[b] = ct.Currents[b][t]
			}
			return loader.Loads(cur)
		}
		var err error
		tr.do(parent, "pdn.settle", 0, func(int32) { err = sim.Settle(loadsAt(0)) })
		if err != nil {
			return err
		}
		for t := 0; t < total; t++ {
			var v []float64
			tr.do(parent, "pdn.step", 0, func(int32) { v = sim.Step(loadsAt(t)) })
			if t >= cfg.Warmup {
				onStep(bi, t-cfg.Warmup, v)
			}
		}
		tr.add("pdn.rhs_steps", float64(total))
		return nil
	}
	runAll := func(run, steps int, onStep func(bi, t int, v []float64)) error {
		errs := make([]error, nb)
		mat.ParallelFor(nb, 1, workers, func(lo, hi int) {
			for bi := lo; bi < hi; bi++ {
				errs[bi] = simulate(bi, run, steps, onStep)
			}
		})
		return errors.Join(errs...)
	}

	// Critical-node scan.
	droops := make([]*pdn.WorstDroop, nb)
	for bi := range droops {
		droops[bi] = pdn.NewWorstDroop(p.Grid.NumNodes())
	}
	if err := runAll(runCalib, cfg.CalibSteps, func(bi, _ int, v []float64) { droops[bi].Observe(v) }); err != nil {
		return nil, err
	}
	merged := pdn.NewWorstDroop(p.Grid.NumNodes())
	for _, d := range droops {
		merged.Observe(d.Min)
	}
	p.CritNodes = make([]int, nblk)
	for b, nodes := range p.Grid.BlockNodes {
		p.CritNodes[b] = merged.CriticalNode(nodes)
	}

	m, k := len(p.Grid.Candidates), nblk
	record := func(cand, crit *mat.Matrix, c int, v []float64) {
		for i, nd := range p.Grid.Candidates {
			cand.Set(i, c, v[nd])
		}
		for b, nd := range p.CritNodes {
			crit.Set(b, c, v[nd])
		}
	}

	// Training maps: the same seeded draw of sample steps as the pipeline.
	rng := rand.New(rand.NewSource(cfg.Seed))
	perBench := cfg.TrainMaps / nb
	if perBench < 1 || perBench > cfg.TrainSteps {
		return nil, fmt.Errorf("TrainMaps %d does not fit %d benchmarks × %d steps", cfg.TrainMaps, nb, cfg.TrainSteps)
	}
	total := perBench * nb
	cand, crit := mat.Zeros(m, total), mat.Zeros(k, total)
	benchIdx := make([]int, total)
	picks := make([]map[int]int, nb)
	col := 0
	for bi := range p.Bench {
		steps := rng.Perm(cfg.TrainSteps)[:perBench]
		sort.Ints(steps)
		picks[bi] = make(map[int]int, perBench)
		for _, s := range steps {
			picks[bi][s] = col
			benchIdx[col] = bi
			col++
		}
	}
	err := runAll(runTrain, cfg.TrainSteps, func(bi, t int, v []float64) {
		if c, ok := picks[bi][t]; ok {
			record(cand, crit, c, v)
		}
	})
	if err != nil {
		return nil, err
	}
	p.Train = &experiments.SampleSet{CandV: cand, CritV: crit, Bench: benchIdx}

	// Held-out maps.
	p.TestByBench = make([]*experiments.SampleSet, nb)
	cols := make([]int, nb)
	for bi := range p.Bench {
		idx := make([]int, cfg.TestSteps)
		for i := range idx {
			idx[i] = bi
		}
		p.TestByBench[bi] = &experiments.SampleSet{CandV: mat.Zeros(m, cfg.TestSteps), CritV: mat.Zeros(k, cfg.TestSteps), Bench: idx}
	}
	err = runAll(runTest, cfg.TestSteps*cfg.TestStride, func(bi, t int, v []float64) {
		if t%cfg.TestStride != 0 || cols[bi] >= cfg.TestSteps {
			return
		}
		s := p.TestByBench[bi]
		record(s.CandV, s.CritV, cols[bi], v)
		cols[bi]++
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// coreSolver is one core's warm-started group-lasso path solver, built the
// way the pipeline builds it: the core's candidate rows of the capped
// training set, standardized, with the solver's iteration headroom raised
// to 3000.
type coreSolver struct {
	ps      *lasso.PathSolver
	candIdx []int
	m       int
}

func newCoreSolver(tr *tracer, parent int32, p *experiments.Pipeline, c int) *coreSolver {
	ds, candIdx := p.CoreDataset(c, p.Train)
	if cp := p.Cfg.GLSampleCap; cp > 0 && ds.X.Cols() > cp {
		stride := ds.X.Cols() / cp
		cols := make([]int, 0, cp)
		for j := 0; j < ds.X.Cols() && len(cols) < cp; j += stride {
			cols = append(cols, j)
		}
		ds = ds.Subset(cols)
	}
	var z, g *mat.Matrix
	tr.do(parent, "mat.standardize", 0, func(int32) {
		z, _ = mat.Standardize(ds.X)
		g, _ = mat.Standardize(ds.F)
	})
	opts := p.Cfg.Solver
	if opts.MaxIter < 3000 {
		opts.MaxIter = 3000
	}
	st := &coreSolver{candIdx: candIdx, m: ds.X.Rows()}
	tr.do(parent, "lasso.gram", 0, func(int32) { st.ps = lasso.NewPathSolver(z, g, opts) })
	return st
}

func threshold(cfg experiments.Config) float64 {
	if cfg.Threshold != 0 {
		return cfg.Threshold
	}
	return core.DefaultThreshold
}

func pathStats(tr *tracer, st lasso.PathStats) {
	tr.add("lasso.kept", float64(st.Kept))
	tr.add("lasso.screened", float64(st.Screened))
	tr.add("lasso.kkt_resolves", float64(st.Resolves))
}

// path solves the constrained Eq. 12 at every λ, densest budget first, and
// returns the global candidate selections in input order.
func (st *coreSolver) path(tr *tracer, parent int32, lambdas []float64, thr float64) ([][]int, error) {
	order := make([]int, len(lambdas))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return lambdas[order[a]] > lambdas[order[b]] })
	out := make([][]int, len(lambdas))
	for _, i := range order {
		var res *lasso.Result
		var stats lasso.PathStats
		var err error
		tr.do(parent, "lasso.path", 0, func(int32) { res, stats, err = st.ps.SolveConstrained(lambdas[i]) })
		if err != nil && !errors.Is(err, lasso.ErrDidNotConverge) {
			return nil, err
		}
		tr.add("lasso.path_iters", float64(res.Iters))
		pathStats(tr, stats)
		out[i] = globalIdx(st.candIdx, res.Select(thr))
	}
	return out, nil
}

// count bisects the penalized multiplier for exactly q sensors, trimming to
// the q strongest groups when the count cannot land exactly — the
// pipeline's PlaceCoreCount — and returns global candidate indices.
func (st *coreSolver) count(tr *tracer, parent int32, q int, thr float64) ([]int, error) {
	if q < 1 || q > st.m {
		return nil, fmt.Errorf("cannot place %d of %d candidates", q, st.m)
	}
	lo, hi := 0.0, st.ps.MuMax()
	var best *lasso.Result
	bestCount := -1
	for it := 0; it < 40; it++ {
		mu := (lo + hi) / 2
		var r *lasso.Result
		var stats lasso.PathStats
		var err error
		tr.do(parent, "lasso.count", 0, func(int32) { r, stats, err = st.ps.SolvePenalized(mu) })
		if err != nil && !errors.Is(err, lasso.ErrDidNotConverge) {
			return nil, err
		}
		tr.add("lasso.count_solves", 1)
		pathStats(tr, stats)
		n := len(r.Select(thr))
		if n >= q && (bestCount < 0 || n < bestCount) {
			best, bestCount = r, n
		}
		if n == q {
			break
		}
		if n > q {
			lo = mu
		} else {
			hi = mu
		}
	}
	if best == nil {
		return nil, fmt.Errorf("could not reach %d sensors", q)
	}
	sel := best.Select(thr)
	if len(sel) > q {
		sort.Slice(sel, func(a, b int) bool { return best.GroupNorms[sel[a]] > best.GroupNorms[sel[b]] })
		sel = sel[:q]
		sort.Ints(sel)
	}
	return globalIdx(st.candIdx, sel), nil
}

func globalIdx(global, local []int) []int {
	out := make([]int, len(local))
	for i, l := range local {
		out[i] = global[l]
	}
	return out
}

// forEachCore runs fn for every core on the pipeline's worker bound.
func forEachCore(p *experiments.Pipeline, fn func(c int) error) error {
	workers := p.Cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nc := len(p.Chip.Cores)
	errs := make([]error, nc)
	mat.ParallelFor(nc, 1, workers, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			errs[c] = fn(c)
		}
	})
	return errors.Join(errs...)
}

// replayCampaign is the traced campaign: the substrate replay, then Table 1
// and Table 2 through lasso.PathSolver on Pipeline.CoreDataset with the
// pipeline's sample cap, each layer call in its own span.
func replayCampaign(tr *tracer, cfg experiments.Config, q int) (*campaignResult, error) {
	var p *experiments.Pipeline
	var err error
	tr.do(0, "experiments.new", 0, func(id int32) { p, err = replayNew(tr, id, cfg) })
	if err != nil {
		return nil, err
	}
	res := &campaignResult{CritNodes: p.CritNodes, blockNodes: p.Grid.BlockNodes}
	thr := threshold(cfg)
	nc := len(p.Chip.Cores)
	solvers := make([]*coreSolver, nc)
	train := &core.Dataset{X: p.Train.CandV, F: p.Train.CritV}

	tr.do(0, "experiments.table1", 0, func(id int32) {
		testAll := p.TestAll()
		perCore := make([][][]int, nc)
		err = forEachCore(p, func(c int) error {
			solvers[c] = newCoreSolver(tr, id, p, c)
			var err error
			perCore[c], err = solvers[c].path(tr, id, cfg.Lambdas, thr)
			return err
		})
		if err != nil {
			return
		}
		for li, l := range cfg.Lambdas {
			union := []int{}
			for c := 0; c < nc; c++ {
				union = append(union, perCore[c][li]...)
			}
			sort.Ints(union)
			row := t1Row{Lambda: l, SensorsCore0: len(perCore[0][li]), TotalSensors: len(union), RelErrPct: 100}
			if len(union) > 0 {
				var pred *core.Predictor
				tr.do(id, "ols.refit", 0, func(int32) { pred, err = core.BuildPredictor(train, union) })
				if err != nil {
					return
				}
				tr.do(id, "core.predict_dataset", 0, func(int32) {
					row.RelErrPct = 100 * ols.RelativeError(pred.PredictDataset(&core.Dataset{X: testAll.CandV, F: testAll.CritV}), testAll.CritV)
				})
			}
			res.Table1 = append(res.Table1, row)
			res.Selections = append(res.Selections, union)
		}
	})
	if err != nil {
		return nil, err
	}

	tr.do(0, "experiments.table2", 0, func(id int32) {
		perCore := make([][]int, nc)
		err = forEachCore(p, func(c int) error {
			var err error
			perCore[c], err = solvers[c].count(tr, id, q, thr)
			return err
		})
		if err != nil {
			return
		}
		union := []int{}
		for _, sel := range perCore {
			union = append(union, sel...)
		}
		sort.Ints(union)
		res.Q2Union = union
		var pred *core.Predictor
		tr.do(id, "ols.refit", 0, func(int32) { pred, err = core.BuildPredictor(train, union) })
		if err != nil {
			return
		}
		var ee *eagleeye.Placement
		tr.do(id, "eagleeye.place", 0, func(int32) { ee = eagleeye.Place(p.Train.CandV, p.Train.CritV, cfg.Vth, len(union)) })
		for bi, s := range p.TestByBench {
			var predicted *mat.Matrix
			tr.do(id, "core.predict_dataset", 0, func(int32) { predicted = pred.PredictDataset(&core.Dataset{X: s.CandV, F: s.CritV}) })
			row := t2Row{Bench: p.Bench[bi].Name}
			tr.do(id, "detect.score", 0, func(int32) {
				truth := detect.TruthFromVoltages(s.CritV, cfg.Vth)
				row.Proposed = rates(detect.Score(truth, detect.AlarmsFromPredictions(predicted, cfg.Vth)))
				row.EagleEye = rates(detect.Score(truth, ee.Alarms(s.CandV)))
			})
			res.Table2 = append(res.Table2, row)
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
