package pdn

import (
	"math"
	"testing"

	"voltsense/internal/floorplan"
	"voltsense/internal/grid"
	"voltsense/internal/mat"
	"voltsense/internal/power"
	"voltsense/internal/workload"
)

// smallGrid builds a reduced mesh for fast tests.
func smallGrid() *grid.Grid {
	chip := floorplan.New(floorplan.DefaultConfig())
	cfg := grid.DefaultConfig()
	cfg.NX, cfg.NY = 26, 12

	return grid.Build(chip, cfg)
}

const testDT = 5e-10

// run settles s at the first step's block currents and steps it steps
// times, handing each step's voltages to onStep: the transient loop the
// experiments drive through BatchSimulator.RunAll, for one Simulator.
func run(t *testing.T, s *Simulator, g *grid.Grid, steps int, currentAt func(step int) []float64, onStep func(step int, v []float64)) {
	t.Helper()
	loader := NewBlockLoader(g)
	if err := s.Settle(loader.Loads(currentAt(0))); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < steps; step++ {
		onStep(step, s.Step(loader.Loads(currentAt(step))))
	}
}

func TestQuiescentStaysAtVDD(t *testing.T) {
	g := smallGrid()
	s, err := NewSimulator(g, testDT)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumNodes())
	for i := 0; i < 50; i++ {
		v := s.Step(loads)
		for nd, x := range v {
			if math.Abs(x-g.Cfg.VDD) > 1e-9 {
				t.Fatalf("node %d drifted to %v with zero load", nd, x)
			}
		}
	}
}

func TestConstantLoadSettlesToDC(t *testing.T) {
	g := smallGrid()
	s, err := NewSimulator(g, testDT)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumNodes())
	// Draw 2 A total spread over the nodes of block 10.
	nodes := g.BlockNodes[10]
	for _, nd := range nodes {
		loads[nd] = 2.0 / float64(len(nodes))
	}
	want, err := StaticSolve(g, loads)
	if err != nil {
		t.Fatal(err)
	}
	var v []float64
	for i := 0; i < 4000; i++ {
		v = s.Step(loads)
	}
	for nd := range v {
		if math.Abs(v[nd]-want[nd]) > 1e-4 {
			t.Fatalf("node %d settled at %v, DC says %v", nd, v[nd], want[nd])
		}
	}
}

func TestDroopUnderLoadAndRecovery(t *testing.T) {
	g := smallGrid()
	s, err := NewSimulator(g, testDT)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumNodes())
	nodes := g.BlockNodes[14] // an ALU block
	for _, nd := range nodes {
		loads[nd] = 3.0 / float64(len(nodes))
	}
	var minV float64 = math.Inf(1)
	for i := 0; i < 500; i++ {
		v := s.Step(loads)
		if v[nodes[0]] < minV {
			minV = v[nodes[0]]
		}
	}
	if minV >= g.Cfg.VDD {
		t.Fatal("no droop under 3 A load")
	}
	// Release the load: voltage must recover towards VDD (inductive kick
	// may overshoot, but must stay bounded).
	zero := make([]float64, g.NumNodes())
	var last []float64
	for i := 0; i < 4000; i++ {
		last = s.Step(zero)
	}
	if math.Abs(last[nodes[0]]-g.Cfg.VDD) > 1e-4 {
		t.Fatalf("voltage did not recover: %v", last[nodes[0]])
	}
}

func TestVoltagesBoundedDuringRealWorkload(t *testing.T) {
	chip := floorplan.New(floorplan.DefaultConfig())
	cfg := grid.DefaultConfig()
	cfg.NX, cfg.NY = 26, 12

	g := grid.Build(chip, cfg)
	s, err := NewSimulator(g, testDT)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Generate(chip, workload.Benchmarks()[0], 400, 0)
	ct := power.DefaultModel(chip).Currents(tr)
	cur := make([]float64, chip.NumBlocks())
	run(t, s, g, 400, func(step int) []float64 {
		for b := range cur {
			cur[b] = ct.Currents[b][step]
		}
		return cur
	}, func(step int, v []float64) {
		for nd, x := range v {
			if math.IsNaN(x) || x < 0 || x > 1.5*g.Cfg.VDD {
				t.Fatalf("node %d voltage %v unphysical at step %d", nd, x, step)
			}
		}
	})
}

func TestSpatialCorrelationDecaysWithDistance(t *testing.T) {
	// The methodology's premise: nearby nodes are more correlated than
	// distant ones. Drive a workload and verify.
	chip := floorplan.New(floorplan.DefaultConfig())
	cfg := grid.DefaultConfig()
	cfg.NX, cfg.NY = 26, 12

	g := grid.Build(chip, cfg)
	s, err := NewSimulator(g, testDT)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Generate(chip, workload.Benchmarks()[1], 600, 0)
	ct := power.DefaultModel(chip).Currents(tr)

	ref := g.NodeID(4, 4)   // inside core 0
	near := g.NodeID(5, 4)  // adjacent
	far := g.NodeID(24, 10) // opposite corner of the chip

	var refV, nearV, farV []float64
	cur := make([]float64, chip.NumBlocks())
	run(t, s, g, 600, func(step int) []float64 {
		for b := range cur {
			cur[b] = ct.Currents[b][step]
		}
		return cur
	}, func(step int, v []float64) {
		if step < 50 { // skip warm-up transient
			return
		}
		refV = append(refV, v[ref])
		nearV = append(nearV, v[near])
		farV = append(farV, v[far])
	})
	cNear := mat.Correlation(refV, nearV)
	cFar := mat.Correlation(refV, farV)
	if cNear <= cFar {
		t.Fatalf("correlation near=%.3f <= far=%.3f; spatial locality broken", cNear, cFar)
	}
	if cNear < 0.9 {
		t.Errorf("adjacent-node correlation %.3f unexpectedly weak", cNear)
	}
}

func TestWorstDroopTracker(t *testing.T) {
	w := NewWorstDroop(3)
	w.Observe([]float64{1.0, 0.9, 0.95})
	w.Observe([]float64{0.98, 0.92, 0.90})
	if w.Min[0] != 0.98 || w.Min[1] != 0.9 || w.Min[2] != 0.90 {
		t.Fatalf("Min = %v", w.Min)
	}
	if got := w.CriticalNode([]int{0, 1, 2}); got != 1 {
		t.Fatalf("CriticalNode = %d, want 1", got)
	}
	if got := w.CriticalNode([]int{0, 2}); got != 2 {
		t.Fatalf("CriticalNode subset = %d, want 2", got)
	}
}

func TestCriticalNodeEmptyPanics(t *testing.T) {
	w := NewWorstDroop(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.CriticalNode(nil)
}

func TestResetRestoresQuiescence(t *testing.T) {
	g := smallGrid()
	s, err := NewSimulator(g, testDT)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumNodes())
	loads[g.BlockNodes[0][0]] = 1
	s.Step(loads)
	s.Reset()
	for p, c := range s.b.padCurCols[0] {
		if c != 0 {
			t.Fatalf("pad %d carries %v A after Reset", p, c)
		}
	}
	v := s.Step(make([]float64, g.NumNodes()))
	for nd, x := range v {
		if math.Abs(x-g.Cfg.VDD) > 1e-9 {
			t.Fatalf("node %d at %v after Reset", nd, x)
		}
	}
}

func TestNewSimulatorRejectsBadDT(t *testing.T) {
	if _, err := NewSimulator(smallGrid(), 0); err == nil {
		t.Fatal("expected error for dt=0")
	}
}

func TestBlockLoaderConservesCurrent(t *testing.T) {
	g := smallGrid()
	l := NewBlockLoader(g)
	cur := make([]float64, len(g.BlockNodes))
	for b := range cur {
		cur[b] = float64(b%5) * 0.3
	}
	loads := l.Loads(cur)
	var totLoads, totCur float64
	for _, v := range loads {
		totLoads += v
	}
	for _, v := range cur {
		totCur += v
	}
	if math.Abs(totLoads-totCur) > 1e-9 {
		t.Fatalf("loader lost current: %v vs %v", totLoads, totCur)
	}
}
