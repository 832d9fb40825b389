package pdn

import (
	"math/rand"
	"testing"

	"voltsense/internal/floorplan"
	"voltsense/internal/grid"
)

// fullGrid is the production mesh of the paper-scale experiments.
func fullGrid() *grid.Grid {
	chip := floorplan.New(floorplan.DefaultConfig())
	return grid.Build(chip, grid.DefaultConfig())
}

func BenchmarkNewSimulator(b *testing.B) {
	g := fullGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSimulator(g, 5e-10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStep(b *testing.B) {
	g := fullGrid()
	s, err := NewSimulator(g, 5e-10)
	if err != nil {
		b.Fatal(err)
	}
	loads := make([]float64, g.NumNodes())
	for _, nodes := range g.BlockNodes {
		for _, nd := range nodes {
			loads[nd] = 0.2
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(loads)
	}
}

func BenchmarkStaticSolve(b *testing.B) {
	g := fullGrid()
	loads := make([]float64, g.NumNodes())
	for _, nodes := range g.BlockNodes {
		for _, nd := range nodes {
			loads[nd] = 0.2
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StaticSolve(g, loads); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStepZeroAllocs pins the transient hot loop: after construction, every
// Step must be a pair of in-place triangular solves plus state updates —
// no allocation, ever.
func TestStepZeroAllocs(t *testing.T) {
	g := fullGrid()
	s, err := NewSimulator(g, 5e-10)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumNodes())
	for _, nodes := range g.BlockNodes {
		for _, nd := range nodes {
			loads[nd] = 0.2
		}
	}
	s.Step(loads)
	if a := testing.AllocsPerRun(20, func() { s.Step(loads) }); a != 0 {
		t.Fatalf("Step allocates %v times per run, want 0", a)
	}
}

// TestStepZeroAllocsSparse mirrors the banded assertion for the sparse
// backend: the warm-started IC-PCG step must also run allocation-free.
func TestStepZeroAllocsSparse(t *testing.T) {
	g := fullGrid()
	s, err := NewSimulatorBackend(g, 5e-10, Sparse)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumNodes())
	for _, nodes := range g.BlockNodes {
		for _, nd := range nodes {
			loads[nd] = 0.2
		}
	}
	s.Step(loads)
	if a := testing.AllocsPerRun(20, func() { s.Step(loads) }); a != 0 {
		t.Fatalf("sparse Step allocates %v times per run, want 0", a)
	}
}

// TestSettleZeroAllocs: after the first settle builds the DC system,
// Simulator.Settle, SettleColumn on a 19-column batch and RunAll's settle
// of that batch reuse it — no allocation on either backend.
func TestSettleZeroAllocs(t *testing.T) {
	g := fullGrid()
	loads := make([]float64, g.NumNodes())
	for _, nodes := range g.BlockNodes {
		for _, nd := range nodes {
			loads[nd] = 0.2 / float64(len(nodes))
		}
	}
	cols := make([][]float64, scanColumns)
	for c := range cols {
		cols[c] = loads
	}
	for _, backend := range []Backend{Banded, Sparse} {
		s, err := NewSimulatorBackend(g, 5e-10, backend)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := NewBatchSimulator(g, 5e-10, scanColumns, SimOptions{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Settle(loads); err != nil {
			t.Fatal(err)
		}
		if err := bs.SettleColumn(0, loads); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(10, func() { _ = s.Settle(loads) }); a != 0 {
			t.Fatalf("%v Settle allocates %v times per run, want 0", backend, a)
		}
		if a := testing.AllocsPerRun(10, func() { _ = bs.SettleColumn(scanColumns-1, loads) }); a != 0 {
			t.Fatalf("%v SettleColumn allocates %v times per run, want 0", backend, a)
		}
		if a := testing.AllocsPerRun(10, func() { _ = bs.settleAll(cols) }); a != 0 {
			t.Fatalf("%v RunAll's settle allocates %v times per run, want 0", backend, a)
		}
	}
}

// scaledGrid builds the default chip meshed at nx×ny.
func scaledGrid(nx, ny int) *grid.Grid {
	chip := floorplan.New(floorplan.DefaultConfig())
	cfg := grid.DefaultConfig()
	cfg.NX, cfg.NY = nx, ny
	return grid.Build(chip, cfg)
}

func benchStepBackend(b *testing.B, g *grid.Grid, backend Backend) {
	s, err := NewSimulatorBackend(g, 5e-10, backend)
	if err != nil {
		b.Fatal(err)
	}
	loads := make([]float64, g.NumNodes())
	for _, nodes := range g.BlockNodes {
		for _, nd := range nodes {
			loads[nd] = 0.2 / float64(len(nodes))
		}
	}
	if err := s.Settle(loads); err != nil { // steady-state stepping regime
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(loads)
	}
}

// BenchmarkStepBanded256 vs BenchmarkStepSparse256: the same 256×128 mesh
// (NX = 256, the crossover point of the Auto rule; the banded factor,
// numbered along the shorter axis, has half-bandwidth 128) stepped by both
// backends. In-band the banded triangular sweeps win per step — this pair
// documents why Auto keeps Banded below the bandwidth limit.
func BenchmarkStepBanded256(b *testing.B) { benchStepBackend(b, scaledGrid(256, 128), Banded) }

func BenchmarkStepSparse256(b *testing.B) { benchStepBackend(b, scaledGrid(256, 128), Sparse) }

func benchCtorBackend(b *testing.B, g *grid.Grid, backend Backend) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSimulatorBackend(g, 5e-10, backend); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewSimulator512Banded vs BenchmarkNewSimulator512Sparse: the
// banded-vs-sparse speedup pair in BENCH_PR7.json. At 512×256 (half-
// bandwidth 256, the shorter side) the banded step factor costs O(n·bw²) ≈
// 4.3e9 flops and 269 MB (the DC factor, built on the first Settle, as
// much again); sparse assembly plus the MIC factor is O(nnz) — orders of
// magnitude cheaper, which is what makes per-worker simulators at this
// scale viable at all. Neither constructor builds the DC system.
func BenchmarkNewSimulator512Banded(b *testing.B) {
	benchCtorBackend(b, scaledGrid(512, 256), Banded)
}

func BenchmarkNewSimulator512Sparse(b *testing.B) {
	benchCtorBackend(b, scaledGrid(512, 256), Sparse)
}

// BenchmarkStepSparse1024 steps a 1024×1024 mesh (1M nodes). The banded
// factor at this size would need ~8.6 GB and ~5e11 flops (about ten
// minutes) to build, so the sparse path is the only one that runs — the
// scale-up the issue targets.
func BenchmarkStepSparse1024(b *testing.B) { benchStepBackend(b, scaledGrid(1024, 1024), Sparse) }

func benchStepSparseWorkers(b *testing.B, g *grid.Grid, workers int) {
	s, err := NewSimulatorOpts(g, 5e-10, SimOptions{Backend: Sparse, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	loads := make([]float64, g.NumNodes())
	for _, nodes := range g.BlockNodes {
		for _, nd := range nodes {
			loads[nd] = 0.2 / float64(len(nodes))
		}
	}
	if err := s.Settle(loads); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(loads)
	}
}

// BenchmarkStepSparse1024Serial vs BenchmarkStepSparse1024Parallel: the
// serial-vs-parallel speedup pair at the 1M-node scale. Serial pins
// Workers=1 (every kernel inline); Parallel uses the pool default, so the
// reported ratio is the machine's actual core win — parity on one core,
// scaling with the row-partitioned kernels as cores are added. Outputs are
// bitwise identical either way.
func BenchmarkStepSparse1024Serial(b *testing.B) {
	benchStepSparseWorkers(b, scaledGrid(1024, 1024), 1)
}

func BenchmarkStepSparse1024Parallel(b *testing.B) {
	benchStepSparseWorkers(b, scaledGrid(1024, 1024), 0)
}

// stepBatchNRHS is the column count of the batched step pair — the size of
// the benchmark suite the experiments pipeline steps in lock step.
const stepBatchNRHS = 8

func batchBenchFixture(b *testing.B, g *grid.Grid) ([][]float64, [][]float64) {
	n := g.NumNodes()
	loadCols := make([][]float64, stepBatchNRHS)
	for c := range loadCols {
		loads := make([]float64, n)
		for _, nodes := range g.BlockNodes {
			for _, nd := range nodes {
				loads[nd] = 0.2 * float64(c+1) / float64(stepBatchNRHS) / float64(len(nodes))
			}
		}
		loadCols[c] = loads
	}
	return loadCols, nil
}

// BenchmarkStepBatch512 vs BenchmarkStepLooped512: the batched-vs-looped
// speedup pair. Both advance 8 independent transients one step on a 512×256
// mesh; the batch steps them through one matrix traversal per PCG
// iteration, the loop streams the matrix and factor once per transient.
func BenchmarkStepBatch512(b *testing.B) {
	g := scaledGrid(512, 256)
	loadCols, _ := batchBenchFixture(b, g)
	bs, err := NewBatchSimulator(g, 5e-10, stepBatchNRHS, SimOptions{Backend: Sparse})
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < stepBatchNRHS; c++ {
		if err := bs.SettleColumn(c, loadCols[c]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Step(loadCols)
	}
}

// BenchmarkStepScanBatch vs BenchmarkStepScanLooped: one sparse Step of 19
// settled columns on the 288×24 mesh of the critical-node scan (the
// scan-sparse workload), through one width-19 BatchSimulator (at the pool
// default, one block per worker, each one batch PCG) or 19 Simulators (one
// width-1 batch PCG each). Each column's block currents alternate between two
// random draws so every step solves a real transient. benchreport reports
// the pair's speedup.
func BenchmarkStepScanBatch(b *testing.B) {
	g, draws := scanStepFixture()
	bs, err := NewBatchSimulator(g, 5e-10, scanColumns, SimOptions{Backend: Sparse})
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < scanColumns; c++ {
		if err := bs.SettleColumn(c, draws[0][c]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Step(draws[1-i%2])
	}
}

func BenchmarkStepScanLooped(b *testing.B) {
	g, draws := scanStepFixture()
	sims := make([]*Simulator, scanColumns)
	for c := range sims {
		s, err := NewSimulatorBackend(g, 5e-10, Sparse)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Settle(draws[0][c]); err != nil {
			b.Fatal(err)
		}
		sims[c] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c, s := range sims {
			s.Step(draws[1-i%2][c])
		}
	}
}

// BenchmarkSettleScanBatch vs BenchmarkSettleScanLooped: the DC settle of
// the 19 scan columns on the 288×24 mesh, through RunAll's settle of one
// width-19 BatchSimulator (at the pool default, one block solve per
// worker) or through 19 width-1 Simulator.Settle calls. benchreport
// reports the pair's speedup.
func BenchmarkSettleScanBatch(b *testing.B) {
	g, draws := scanStepFixture()
	bs, err := NewBatchSimulator(g, 5e-10, scanColumns, SimOptions{Backend: Sparse})
	if err != nil {
		b.Fatal(err)
	}
	if err := bs.settleAll(draws[0]); err != nil { // builds the DC system
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bs.settleAll(draws[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSettleScanLooped(b *testing.B) {
	g, draws := scanStepFixture()
	sims := make([]*Simulator, scanColumns)
	for c := range sims {
		s, err := NewSimulatorBackend(g, 5e-10, Sparse)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Settle(draws[0][c]); err != nil { // builds the DC system
			b.Fatal(err)
		}
		sims[c] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c, s := range sims {
			if err := s.Settle(draws[i%2][c]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// scanColumns is the scan's column count, one per benchmark.
const scanColumns = 19

// scanStepFixture is the scan mesh and two draws of node loads per column.
func scanStepFixture() (*grid.Grid, [2][][]float64) {
	g := scaledGrid(288, 24)
	rng := rand.New(rand.NewSource(19))
	var draws [2][][]float64
	for d := range draws {
		draws[d] = make([][]float64, scanColumns)
		for c := range draws[d] {
			cur := make([]float64, len(g.BlockNodes))
			for blk := range cur {
				cur[blk] = 0.05 * rng.Float64()
			}
			draws[d][c] = append([]float64(nil), NewBlockLoader(g).Loads(cur)...)
		}
	}
	return g, draws
}

func BenchmarkStepLooped512(b *testing.B) {
	g := scaledGrid(512, 256)
	loadCols, _ := batchBenchFixture(b, g)
	sims := make([]*Simulator, stepBatchNRHS)
	for c := range sims {
		s, err := NewSimulatorBackend(g, 5e-10, Sparse)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Settle(loadCols[c]); err != nil {
			b.Fatal(err)
		}
		sims[c] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c, s := range sims {
			s.Step(loadCols[c])
		}
	}
}

// TestStepBatchZeroAllocs extends the zero-alloc invariant to the batched
// step: the sparse batch PCG at widths 4 and 1, sparse batches split into
// two blocks that step as pool jobs (width 3 at 2 workers has a one-column
// block), and banded batches of one, two and three interleaved column
// blocks stepped as pool jobs.
func TestStepBatchZeroAllocs(t *testing.T) {
	g := smallGrid()
	for _, tc := range []struct {
		backend    Backend
		m, workers int
	}{{Sparse, 4, 1}, {Sparse, 1, 0}, {Sparse, 3, 2}, {Sparse, 19, 2}, {Banded, 1, 0}, {Banded, 3, 1}, {Banded, 19, 2}, {Banded, 19, 3}} {
		bs, err := NewBatchSimulator(g, testDT, tc.m, SimOptions{Backend: tc.backend, Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if want := min(tc.m, max(tc.workers, 1)); tc.workers > 0 && len(bs.blocks) != want {
			t.Fatalf("%v width %d at %d workers: %d blocks, want %d", tc.backend, tc.m, tc.workers, len(bs.blocks), want)
		}
		loadCols := make([][]float64, tc.m)
		for c := range loadCols {
			loads := make([]float64, g.NumNodes())
			for _, nodes := range g.BlockNodes {
				for _, nd := range nodes {
					loads[nd] = 0.1 * float64(c+1)
				}
			}
			loadCols[c] = loads
		}
		bs.Step(loadCols)
		if a := testing.AllocsPerRun(20, func() { bs.Step(loadCols) }); a != 0 {
			t.Fatalf("%v width %d batch Step allocates %v times per run, want 0", tc.backend, tc.m, a)
		}
	}
}

// stepColsFixture is m distinct load columns on the quick pipeline's
// 52×23 mesh (banded half-bandwidth 23).
func stepColsFixture(m int) (*grid.Grid, [][]float64) {
	g := scaledGrid(52, 23)
	cols := make([][]float64, m)
	for c := range cols {
		loads := make([]float64, g.NumNodes())
		for _, nodes := range g.BlockNodes {
			for _, nd := range nodes {
				loads[nd] = 0.1 * float64(c+1) / float64(len(nodes))
			}
		}
		cols[c] = loads
	}
	return g, cols
}

// BenchmarkStepBatch19Banded vs BenchmarkStepLooped19Banded: the 19
// benchmarks' transients advanced one step on the 52×23 mesh, through one
// width-19 BatchSimulator (column blocks, each one interleaved sweep of the
// factor) or 19 Simulators (one padded sweep each). benchreport reports
// the pair's speedup.
func BenchmarkStepBatch19Banded(b *testing.B) {
	g, cols := stepColsFixture(19)
	bs, err := NewBatchSimulator(g, 5e-10, len(cols), SimOptions{Backend: Banded})
	if err != nil {
		b.Fatal(err)
	}
	for c, loads := range cols {
		if err := bs.SettleColumn(c, loads); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Step(cols)
	}
}

func BenchmarkStepLooped19Banded(b *testing.B) {
	g, cols := stepColsFixture(19)
	sims := make([]*Simulator, len(cols))
	for c, loads := range cols {
		s, err := NewSimulatorBackend(g, 5e-10, Banded)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Settle(loads); err != nil {
			b.Fatal(err)
		}
		sims[c] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c, s := range sims {
			s.Step(cols[c])
		}
	}
}
