package pdn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"voltsense/internal/floorplan"
	"voltsense/internal/grid"
	"voltsense/internal/sparse"
)

// StaticSolve computes the DC operating point for constant node loads
// (inductors shorted, capacitors open) with an independent one-shot
// conjugate-gradient solve: natural node order, plain IC(0), a cold start,
// one width-1 sparse.BatchCGSolver. It shares none of the engine's RCM
// order, modified IC or VDD start, and is the cross-check oracle of the
// transient engine: a constant-load transient, and either backend's
// settle, must land on this solution.
func StaticSolve(g *grid.Grid, loads []float64) ([]float64, error) {
	b := make([]float64, g.NumNodes())
	for i, ld := range loads {
		b[i] = -ld
	}
	for _, pad := range g.Pads {
		gdc := 1 / pad.R // the inductor is a short at DC
		b[pad.Node] += gdc * g.Cfg.VDD
	}
	cg, err := sparse.NewBatchCGSolver(assembleSystemCSR(g, dcDiag(g)), 1, sparse.CGOptions{Tol: 1e-12})
	if err != nil {
		return nil, fmt.Errorf("pdn: static solve: %w", err)
	}
	x := make([]float64, len(b))
	if _, err := cg.SolveBatch(x, b); err != nil {
		return nil, fmt.Errorf("pdn: static solve: %w", err)
	}
	return x, nil
}

// TestSparseMatchesBandedTransient is the golden equivalence test: on a
// bandwidth-friendly mesh where both backends run, the sparse IC-PCG path
// must track the banded Cholesky within 1e-9 at every node of every step.
// The wide mesh runs the banded factor in transposed (column-major) node
// order, the tall one in row-major order.
func TestSparseMatchesBandedTransient(t *testing.T) {
	for _, g := range []*grid.Grid{smallGrid(), scaledGrid(12, 26)} {
		t.Run(fmt.Sprintf("%dx%d", g.Cfg.NX, g.Cfg.NY), func(t *testing.T) {
			sparseMatchesBandedTransient(t, g)
		})
	}
}

func sparseMatchesBandedTransient(t *testing.T, g *grid.Grid) {
	sb, err := NewSimulatorBackend(g, testDT, Banded)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSimulatorBackend(g, testDT, Sparse)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(42))
	loads := make([]float64, n)
	const steps = 200
	worst := 0.0
	for step := 0; step < steps; step++ {
		// Noisy block-style loading with a mid-run level shift, to move the
		// warm start around rather than settling into a fixed point.
		level := 0.05
		if step >= steps/2 {
			level = 0.25
		}
		for _, nodes := range g.BlockNodes {
			cur := level * rng.Float64()
			for _, nd := range nodes {
				loads[nd] = cur / float64(len(nodes))
			}
		}
		vb := sb.Step(loads)
		vs := sp.Step(loads)
		for i := range vb {
			if d := math.Abs(vb[i] - vs[i]); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-9 {
		t.Fatalf("sparse and banded transients diverge: max |Δv| = %g > 1e-9", worst)
	}
	t.Logf("max |Δv| over %d steps: %g", steps, worst)
}

// TestBackendAutoSelection pins the Auto rule: narrow meshes stay on the
// banded factor, wide ones switch to sparse.
func TestBackendAutoSelection(t *testing.T) {
	chip := floorplan.New(floorplan.DefaultConfig())

	narrow := grid.DefaultConfig() // NX=78 ≤ sparseBandwidthLimit
	s, err := NewSimulator(grid.Build(chip, narrow), testDT)
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend() != Banded {
		t.Fatalf("78-wide mesh picked %v, want banded", s.Backend())
	}

	wide := grid.DefaultConfig()
	wide.NX, wide.NY = 300, 4 // bandwidth 300 > sparseBandwidthLimit
	s, err = NewSimulator(grid.Build(chip, wide), testDT)
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend() != Sparse {
		t.Fatalf("300-wide mesh picked %v, want sparse", s.Backend())
	}
}

// TestSparseSettlesOntoStaticSolve mirrors the banded settling cross-check
// for the new backend: a constant-load sparse transient must converge onto
// the independent DC solution.
func TestSparseSettlesOntoStaticSolve(t *testing.T) {
	g := smallGrid()
	s, err := NewSimulatorBackend(g, testDT, Sparse)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	loads := make([]float64, n)
	for _, nodes := range g.BlockNodes {
		for _, nd := range nodes {
			loads[nd] = 0.01
		}
	}
	want, err := StaticSolve(g, loads)
	if err != nil {
		t.Fatal(err)
	}
	var v []float64
	for step := 0; step < 4000; step++ {
		v = s.Step(loads)
	}
	worst := 0.0
	for i := range v {
		if d := math.Abs(v[i] - want[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-6 {
		t.Fatalf("sparse transient settled %g away from DC solution", worst)
	}
}

// TestBandedSolverOrdersAlongShortAxis pins the banded numbering: a
// permutation of the nodes whose mesh edges span at most the mesh's
// shorter side.
func TestBandedSolverOrdersAlongShortAxis(t *testing.T) {
	for _, tc := range []struct{ nx, ny, bw int }{{52, 23, 23}, {78, 34, 34}, {12, 26, 12}} {
		g := scaledGrid(tc.nx, tc.ny)
		pos := shortAxisOrder(g)
		if _, err := factorBanded(g, dcDiag(g), pos); err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, len(pos))
		for _, p := range pos {
			if seen[p] {
				t.Fatalf("%dx%d: row %d assigned twice", tc.nx, tc.ny, p)
			}
			seen[p] = true
		}
		bw := 0
		for _, e := range g.Edges {
			bw = max(bw, pos[e.A]-pos[e.B], pos[e.B]-pos[e.A])
		}
		if bw != tc.bw {
			t.Fatalf("%dx%d: half-bandwidth %d, want %d", tc.nx, tc.ny, bw, tc.bw)
		}
	}
}

// TestSettleMatchesStaticSolve: each backend's DC settle lands on the
// independent conjugate-gradient DC solution — the banded factor in both
// node orderings, the sparse solver on the same meshes, and the 288×24 scan
// mesh, which Auto resolves to sparse.
func TestSettleMatchesStaticSolve(t *testing.T) {
	cases := []struct {
		g       *grid.Grid
		backend Backend
	}{
		{smallGrid(), Banded}, {scaledGrid(12, 26), Banded},
		{smallGrid(), Sparse}, {scaledGrid(12, 26), Sparse},
		{scaledGrid(288, 24), Auto},
	}
	for _, tc := range cases {
		g := tc.g
		s, err := NewSimulatorBackend(g, testDT, tc.backend)
		if err != nil {
			t.Fatal(err)
		}
		if tc.backend == Auto && s.Backend() != Sparse {
			t.Fatalf("%dx%d resolved to %v, want sparse", g.Cfg.NX, g.Cfg.NY, s.Backend())
		}
		loads := make([]float64, g.NumNodes())
		for b, nodes := range g.BlockNodes {
			for _, nd := range nodes {
				loads[nd] = 0.05 * float64(b%7+1) / float64(len(nodes))
			}
		}
		want, err := StaticSolve(g, loads)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Settle(loads); err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for i := range want {
			worst = math.Max(worst, math.Abs(s.b.vCols[0][i]-want[i]))
		}
		if worst > 1e-9 {
			t.Fatalf("%dx%d %v: settle %g away from StaticSolve", g.Cfg.NX, g.Cfg.NY, s.Backend(), worst)
		}
		t.Logf("%dx%d %v: max |Δv| = %g", g.Cfg.NX, g.Cfg.NY, s.Backend(), worst)
	}
}

// TestSettlePadCurrentsCarryLoad checks two physical invariants of the DC
// operating point. Capacitors are open at DC, so the pad branches carry
// the whole load: |Σ padCur − Σ loads| ≤ 1e-9·Σ loads. And a resistive
// mesh fed only from the VDD rail cannot rise above it: no node sits above
// VDD + 1e-9 V. Both Simulator.Settle and BatchSimulator.SettleColumn are
// checked, on both backends, on the small mesh and the 288×24 scan mesh.
func TestSettlePadCurrentsCarryLoad(t *testing.T) {
	for _, g := range []*grid.Grid{smallGrid(), scaledGrid(288, 24)} {
		rng := rand.New(rand.NewSource(int64(g.Cfg.NX)))
		currents := make([]float64, len(g.BlockNodes))
		for b := range currents {
			currents[b] = 0.05 * rng.Float64()
		}
		loads := NewBlockLoader(g).Loads(currents)
		total := 0.0
		for _, ld := range loads {
			total += ld
		}
		vdd := g.Cfg.VDD
		for _, backend := range []Backend{Banded, Sparse} {
			what := fmt.Sprintf("%dx%d %v", g.Cfg.NX, g.Cfg.NY, backend)
			s, err := NewSimulatorBackend(g, testDT, backend)
			if err != nil {
				t.Fatal(err)
			}
			bs, err := NewBatchSimulator(g, testDT, 2, SimOptions{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Settle(loads); err != nil {
				t.Fatal(err)
			}
			if err := bs.SettleColumn(1, loads); err != nil {
				t.Fatal(err)
			}
			for _, st := range []struct {
				name      string
				v, padCur []float64
			}{
				{"Settle", s.b.vCols[0], s.b.padCurCols[0]},
				{"SettleColumn", bs.vCols[1], bs.padCurCols[1]},
			} {
				pads, vmax := 0.0, math.Inf(-1)
				for _, c := range st.padCur {
					pads += c
				}
				for _, v := range st.v {
					vmax = math.Max(vmax, v)
				}
				rel := math.Abs(pads-total) / total
				if rel > 1e-9 {
					t.Fatalf("%s %s: pads carry %.12g A, loads draw %.12g A (relative mismatch %g)", what, st.name, pads, total, rel)
				}
				if vmax > vdd+1e-9 {
					t.Fatalf("%s %s: a node sits at %.12g V, above VDD %g", what, st.name, vmax, vdd)
				}
				t.Logf("%s %s: relative current mismatch %.2g, highest node %.1f mV below VDD", what, st.name, rel, 1e3*(vdd-vmax))
			}
		}
	}
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
	}{{"", Auto}, {"auto", Auto}, {"banded", Banded}, {"sparse", Sparse}} {
		got, err := ParseBackend(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBackend(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseBackend("gpu"); err == nil {
		t.Fatal("ParseBackend accepted unknown backend")
	}
}

func TestNewSimulatorBackendRejectsUnknown(t *testing.T) {
	if _, err := NewSimulatorBackend(smallGrid(), testDT, Backend(99)); err == nil {
		t.Fatal("unknown backend accepted")
	}
}
