package vmap

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"voltsense/internal/floorplan"
	"voltsense/internal/grid"
	"voltsense/internal/mat"
)

func smallGrid() *grid.Grid {
	chip := floorplan.New(floorplan.DefaultConfig())
	cfg := grid.DefaultConfig()
	cfg.NX, cfg.NY = 13, 6

	return grid.Build(chip, cfg)
}

func TestTrainGenerateRecoversLinearField(t *testing.T) {
	// Node voltages are exact linear functions of 3 latent sensors: the
	// generator must reconstruct maps nearly perfectly.
	rng := rand.New(rand.NewSource(1))
	q, nodes, n := 3, 40, 300
	sensors := mat.Zeros(q, n)
	for i := 0; i < q; i++ {
		for j := 0; j < n; j++ {
			sensors.Set(i, j, 0.95+0.03*rng.NormFloat64())
		}
	}
	w := mat.Zeros(nodes, q)
	for i := 0; i < nodes; i++ {
		for k := 0; k < q; k++ {
			w.Set(i, k, rng.Float64())
		}
	}
	nodeV := mat.Mul(w, sensors)
	g, err := Train(sensors, nodeV)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != nodes {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	for j := 0; j < 5; j++ {
		pred := g.Generate(sensors.Col(j))
		e := Compare(pred, nodeV.Col(j))
		if e.MaxAbs > 1e-8 {
			t.Fatalf("sample %d max error %v on exact linear field", j, e.MaxAbs)
		}
	}
}

func TestCompareMetrics(t *testing.T) {
	truth := []float64{1, 1, 1, 1}
	pred := []float64{1, 1, 1, 0.9}
	e := Compare(pred, truth)
	if math.Abs(e.MaxAbs-0.1) > 1e-12 {
		t.Errorf("MaxAbs = %v", e.MaxAbs)
	}
	if math.Abs(e.RMS-0.05) > 1e-12 {
		t.Errorf("RMS = %v", e.RMS)
	}
	if math.Abs(e.Rel-0.05) > 1e-12 {
		t.Errorf("Rel = %v", e.Rel)
	}
}

func TestCompareMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Compare([]float64{1}, []float64{1, 2})
}

func TestRenderShape(t *testing.T) {
	g := smallGrid()
	v := make([]float64, g.NumNodes())
	for i := range v {
		v[i] = 1.0
	}
	s := Render(g, v, 0.8, 1.0)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != g.Cfg.NY {
		t.Fatalf("rendered %d lines, want %d", len(lines), g.Cfg.NY)
	}
	for _, ln := range lines {
		if len(ln) != g.Cfg.NX {
			t.Fatalf("line length %d, want %d", len(ln), g.Cfg.NX)
		}
		if strings.Trim(ln, " ") != "" {
			t.Fatalf("full-rail map should render blank, got %q", ln)
		}
	}
}

func TestRenderDroopVisible(t *testing.T) {
	g := smallGrid()
	v := make([]float64, g.NumNodes())
	for i := range v {
		v[i] = 1.0
	}
	v[g.NodeID(6, 3)] = 0.8
	s := Render(g, v, 0.8, 1.0)
	if !strings.Contains(s, "@") {
		t.Fatal("deep droop should render '@'")
	}
	if strings.Count(s, "@") != 1 {
		t.Fatalf("exactly one deep node expected:\n%s", s)
	}
}

func TestRenderBadScalePanics(t *testing.T) {
	g := smallGrid()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Render(g, make([]float64, g.NumNodes()), 1.0, 1.0)
}
