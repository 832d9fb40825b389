package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"voltsense/internal/floorplan"
	"voltsense/internal/grid"
	"voltsense/internal/pdn"
	"voltsense/internal/power"
	"voltsense/internal/workload"
)

// scanInput is one scan's prepared inputs: the mesh and every benchmark's
// block currents for the scan window.
type scanInput struct {
	grid     *grid.Grid
	currents []*power.CurrentTrace
	run      int
}

// scanResult is what the scan gate compares: each block's critical node and
// its worst voltage.
type scanResult struct {
	CritNodes []int     `json:"crit_nodes"`
	WorstV    []float64 `json:"worst_v"`
	// OutOfRange counts node voltages outside (0, VDD] seen during the scan.
	OutOfRange int    `json:"-"`
	Backend    string `json:"-"`
}

// scanRun is the workload trace run index of the r-th scan of a run.
func scanRun(seed int64, r int) int { return int(seed) + r*1000 }

// prepareScan builds the mesh and the benchmarks' current traces, with a
// span around each layer call when traced.
func prepareScan(tr *tracer, parent int32, sc scale, run int) *scanInput {
	in := &scanInput{run: run}
	var chip *floorplan.Chip
	var pm *power.Model
	tr.do(parent, "grid.build", 0, func(int32) {
		chip = floorplan.New(floorplan.DefaultConfig())
		in.grid = grid.Build(chip, sc.scanGrid)
		pm = power.DefaultModel(chip)
	})
	for _, b := range workload.Benchmarks() {
		var trc *workload.Trace
		tr.do(parent, "workload.generate", 0, func(int32) { trc = workload.Generate(chip, b, sc.scanSteps, run) })
		tr.do(parent, "power.currents", 0, func(int32) { in.currents = append(in.currents, pm.CurrentsScaledLeakage(trc, nil)) })
	}
	return in
}

// scanObserver folds every column's voltages into per-column worst-droop
// trackers and counts values outside (0, VDD].
type scanObserver struct {
	droops []*pdn.WorstDroop
	vdd    float64
	bad    int
}

func newScanObserver(g *grid.Grid, cols int) *scanObserver {
	o := &scanObserver{droops: make([]*pdn.WorstDroop, cols), vdd: g.Cfg.VDD}
	for c := range o.droops {
		o.droops[c] = pdn.NewWorstDroop(g.NumNodes())
	}
	return o
}

func (o *scanObserver) observe(c int, v []float64) {
	o.droops[c].Observe(v)
	for _, x := range v {
		if !(x > 0 && x <= o.vdd) {
			o.bad++
		}
	}
}

// result picks each block's critical node across all columns.
func (o *scanObserver) result(g *grid.Grid, backend pdn.Backend) *scanResult {
	merged := pdn.NewWorstDroop(g.NumNodes())
	for _, d := range o.droops {
		merged.Observe(d.Min)
	}
	res := &scanResult{OutOfRange: o.bad, Backend: backend.String()}
	for _, nodes := range g.BlockNodes {
		nd := merged.CriticalNode(nodes)
		res.CritNodes = append(res.CritNodes, nd)
		res.WorstV = append(res.WorstV, merged.Min[nd])
	}
	return res
}

// scanOnce batches every benchmark through one BatchSimulator — build,
// RunAll (DC settle per column, then the transient), worst droop — and
// times all of it.
func scanOnce(in *scanInput, sc scale) (*scanResult, time.Duration, error) {
	t0 := time.Now()
	cols := len(in.currents)
	bs, err := pdn.NewBatchSimulator(in.grid, sc.campaign.DT, cols, pdn.SimOptions{Backend: sc.scanBackend})
	if err != nil {
		return nil, 0, err
	}
	obs := newScanObserver(in.grid, cols)
	cur := make([][]float64, cols)
	for c := range cur {
		cur[c] = make([]float64, len(in.grid.BlockNodes))
	}
	err = bs.RunAll(sc.scanSteps, func(c, t int) []float64 {
		for b := range cur[c] {
			cur[c][b] = in.currents[c].Currents[b][t]
		}
		return cur[c]
	}, func(c, _ int, v []float64) { obs.observe(c, v) })
	if err != nil {
		return nil, 0, err
	}
	res := obs.result(in.grid, bs.Backend())
	return res, time.Since(t0), nil
}

// runScan is the scan-sparse workload. Each scan has its own inputs, and
// preparing them is that scan's set-up: setup_s is the median over the
// run's scans.
func runScan(rc runConfig) (*outcome, error) {
	out := &outcome{e2e: metrics{}, layer: metrics{}, detail: metrics{}}
	sc := rc.sc
	var setups []float64
	prepare := func(r int) *scanInput {
		t0 := time.Now()
		in := prepareScan(nil, 0, sc, scanRun(rc.seed, r))
		setups = append(setups, time.Since(t0).Seconds())
		return in
	}
	in := prepare(0)
	out.detail.set("scan_nodes", "count", float64(in.grid.NumNodes()))

	if rc.trace {
		return out, traceScan(rc, out, in)
	}

	var walls []float64
	start := time.Now()
	for r := 0; r == 0 || time.Since(start).Seconds()+median(walls) <= rc.seconds; r++ {
		if r > 0 {
			in = prepare(r)
		}
		rc.probe.sample()
		out.attempted++
		res, wall, err := scanOnce(in, sc)
		if err != nil {
			out.failed++
			out.fail("scan %d: %v", r, err)
			break
		}
		walls = append(walls, wall.Seconds())
		out.gate(func() { checkScan(out, rc.ref, res, in.run) })
		runtime.GC()
	}
	rc.probe.sample()
	if len(walls) == 0 {
		return out, nil
	}
	p50 := median(walls)
	worst, _ := tail(walls)
	out.e2e.set("setup_s", "s", median(setups))
	out.e2e.set("op_p50_ms", "ms", p50*1e3)
	out.e2e.set("op_tail_ms", "ms", worst*1e3)
	out.e2e.set("rate_per_s", "1/s", float64(len(walls))/sum(walls))
	out.detail.set("scan_s", "s", p50)
	out.detail.set("scans", "count", float64(len(walls)))
	return out, nil
}

// checkScan is the scan gate: the reference where one exists for the run
// index, and invariants always.
func checkScan(out *outcome, ref *reference, res *scanResult, run int) {
	if res.Backend != pdn.Sparse.String() {
		out.fail("scan ran on the %s backend, want sparse", res.Backend)
	}
	if res.OutOfRange > 0 {
		out.fail("%d node voltages outside (0, VDD]", res.OutOfRange)
	}
	want, ok := ref.Scan[seedKey(int64(run))]
	if !ok {
		return
	}
	compareScan(out, "reference", want, res, 1e-6)
}

func compareScan(out *outcome, what string, want, got *scanResult, tol float64) {
	if !slices.Equal(got.CritNodes, want.CritNodes) {
		out.fail("%s: critical nodes differ", what)
	}
	if len(got.WorstV) != len(want.WorstV) {
		out.fail("%s: %d worst voltages, want %d", what, len(got.WorstV), len(want.WorstV))
		return
	}
	for b := range want.WorstV {
		if !near(got.WorstV[b], want.WorstV[b], tol) {
			out.fail("%s: block %d worst droop %v V, want %v V", what, b, got.WorstV[b], want.WorstV[b])
			return
		}
	}
}

// traceScan runs one untraced scan, then replays set-up and scan under the
// tracer — NewBatchSimulator, SettleColumn per column, Step per step — and
// requires the replay to reproduce the untraced result exactly.
func traceScan(rc runConfig, out *outcome, in *scanInput) error {
	sc := rc.sc
	before := memNow()
	out.attempted++
	res0, wall0, err := scanOnce(in, sc)
	if err != nil {
		return err
	}
	runtimeMetrics(out.layer, before, 1)
	out.gate(func() { checkScan(out, rc.ref, res0, in.run) })
	runtime.GC()

	tr := newTracer()
	out.tracer = tr
	t0 := time.Now()
	var res1 *scanResult
	var scanWall time.Duration
	tr.do(0, "bench.scan", 0, func(id int32) {
		in := prepareScan(tr, id, sc, in.run)
		s0 := time.Now()
		res1, err = replayScan(tr, id, in, sc)
		scanWall = time.Since(s0)
	})
	wall := time.Since(t0)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	out.gate(func() { compareScan(out, "traced replay", res0, res1, 0) })
	lt := layerMetrics(out.layer, tr, wall)
	out.layer.set("trace.overhead_pct", "%", 100*(scanWall.Seconds()-wall0.Seconds())/wall0.Seconds())
	spanDetail(out.detail, lt)
	out.detail.set("scan_untraced_s", "s", wall0.Seconds())
	out.detail.set("scan_traced_s", "s", scanWall.Seconds())
	return nil
}

// replayScan is RunAll unrolled: the same calls in the same order, each in
// its own span.
func replayScan(tr *tracer, parent int32, in *scanInput, sc scale) (*scanResult, error) {
	cols := len(in.currents)
	var bs *pdn.BatchSimulator
	var err error
	tr.do(parent, "pdn.build", 0, func(int32) {
		bs, err = pdn.NewBatchSimulator(in.grid, sc.campaign.DT, cols, pdn.SimOptions{Backend: sc.scanBackend})
	})
	if err != nil {
		return nil, err
	}
	obs := newScanObserver(in.grid, cols)
	loaders := make([]*pdn.BlockLoader, cols)
	cur := make([]float64, len(in.grid.BlockNodes))
	loadsAt := func(c, t int) []float64 {
		for b := range cur {
			cur[b] = in.currents[c].Currents[b][t]
		}
		return loaders[c].Loads(cur)
	}
	for c := range loaders {
		loaders[c] = pdn.NewBlockLoader(in.grid)
		tr.do(parent, "pdn.settle", 0, func(int32) { err = bs.SettleColumn(c, loadsAt(c, 0)) })
		if err != nil {
			return nil, err
		}
	}
	loads := make([][]float64, cols)
	for t := 0; t < sc.scanSteps; t++ {
		var vs [][]float64
		tr.do(parent, "pdn.step", 0, func(int32) {
			for c := range loads {
				loads[c] = loadsAt(c, t)
			}
			vs = bs.Step(loads)
		})
		tr.add("pdn.rhs_steps", float64(cols))
		for c, v := range vs {
			obs.observe(c, v)
		}
	}
	return obs.result(in.grid, bs.Backend()), nil
}
