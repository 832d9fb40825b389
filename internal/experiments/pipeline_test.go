package experiments

import (
	"fmt"
	"testing"

	"voltsense/internal/floorplan"
	"voltsense/internal/grid"
	"voltsense/internal/mat"
	"voltsense/internal/pdn"
)

// tinyConfig is the smallest pipeline that exercises every stage.
func tinyConfig() Config {
	cfg := QuickConfig()
	cfg.Grid.NX, cfg.Grid.NY = 26, 12
	cfg.Warmup = 30
	cfg.TrainSteps = 120
	cfg.TrainMaps = 380
	cfg.TestSteps = 30
	cfg.TestStride = 2
	cfg.CalibSteps = 60
	cfg.GLSampleCap = 300
	return cfg
}

func TestPipelineDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg1 := tinyConfig()
	cfg1.Workers = 1
	cfg3 := tinyConfig()
	cfg3.Workers = 3

	p1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := New(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	for b := range p1.CritNodes {
		if p1.CritNodes[b] != p3.CritNodes[b] {
			t.Fatalf("critical node %d differs: %d vs %d", b, p1.CritNodes[b], p3.CritNodes[b])
		}
	}
	if !mat.Equalish(p1.Train.CandV, p3.Train.CandV, 0) {
		t.Fatal("training candidate matrices differ across worker counts")
	}
	if !mat.Equalish(p1.Train.CritV, p3.Train.CritV, 0) {
		t.Fatal("training critical matrices differ across worker counts")
	}
	for bi := range p1.TestByBench {
		if !mat.Equalish(p1.TestByBench[bi].CandV, p3.TestByBench[bi].CandV, 0) {
			t.Fatalf("test set %d differs across worker counts", bi)
		}
	}
}

func TestPipelineSampleSetShapes(t *testing.T) {
	p, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Train.CandV.Rows() != len(p.Grid.Candidates) {
		t.Errorf("CandV rows %d != candidates %d", p.Train.CandV.Rows(), len(p.Grid.Candidates))
	}
	if p.Train.CritV.Rows() != p.Chip.NumBlocks() {
		t.Errorf("CritV rows %d != blocks %d", p.Train.CritV.Rows(), p.Chip.NumBlocks())
	}
	perBench := 380 / 19
	if want := perBench * 19; p.Train.N() != want {
		t.Errorf("train N = %d, want %d", p.Train.N(), want)
	}
	if len(p.Train.Bench) != p.Train.N() {
		t.Error("Bench labels length mismatch")
	}
	for bi, s := range p.TestByBench {
		if s.N() != 30 {
			t.Errorf("test set %d has %d samples", bi, s.N())
		}
		for _, b := range s.Bench {
			if b != bi {
				t.Errorf("test set %d mislabeled with bench %d", bi, b)
			}
		}
	}
	all := p.TestAll()
	if all.N() != 19*30 {
		t.Errorf("pooled test N = %d", all.N())
	}
}

func TestCriticalNodesInsideTheirBlocks(t *testing.T) {
	p, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for b, nd := range p.CritNodes {
		found := false
		for _, own := range p.Grid.BlockNodes[b] {
			if own == nd {
				found = true
			}
		}
		if !found {
			t.Fatalf("critical node %d of block %d is not one of the block's nodes", nd, b)
		}
	}
}

func TestCoreDatasetConsistency(t *testing.T) {
	p, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The tiny mesh is coarse; pick a core that actually has in-core
	// blank-area nodes.
	coreIdx := -1
	for c := range p.Chip.Cores {
		if len(p.Grid.CandidatesInCore(c)) > 0 {
			coreIdx = c
			break
		}
	}
	if coreIdx < 0 {
		t.Skip("tiny mesh has no in-core candidates")
	}
	ds, candIdx := p.CoreDataset(coreIdx, p.Train)
	if ds.X.Rows() != len(candIdx) {
		t.Fatalf("X rows %d != candidate indices %d", ds.X.Rows(), len(candIdx))
	}
	if ds.F.Rows() != 30 {
		t.Fatalf("F rows %d, want 30 blocks", ds.F.Rows())
	}
	// Row 0 of the core dataset must equal the corresponding global row.
	g := candIdx[0]
	for j := 0; j < 5; j++ {
		if ds.X.At(0, j) != p.Train.CandV.At(g, j) {
			t.Fatal("core dataset rows misaligned with global candidates")
		}
	}
}

func TestPipelineWithUarchSource(t *testing.T) {
	cfg := tinyConfig()
	cfg.TraceSource = TraceUarch
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac := p.EmergencyFraction(p.Train)
	t.Logf("uarch-source emergency fraction: %.3f", frac)
	if frac <= 0 || frac >= 0.9 {
		t.Errorf("uarch source emergency fraction %.3f outside working band", frac)
	}
	// The two sources must produce different voltages (different physics
	// driving the same grid) but the same shapes.
	cfgM := tinyConfig()
	pm, err := New(cfgM)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Equalish(p.Train.CandV, pm.Train.CandV, 1e-12) {
		t.Error("uarch and markov sources produced identical training data")
	}
	if p.Train.N() != pm.Train.N() {
		t.Error("sources disagree on dataset shape")
	}
}

func TestPipelineWithThermalFeedback(t *testing.T) {
	cfg := tinyConfig()
	base, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ThermalFeedback = true
	hot, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hotter silicon leaks more → larger currents → strictly deeper mean
	// droop than the isothermal run.
	meanOf := func(p *Pipeline) float64 {
		return mat.Mean(mat.RowMeans(p.Train.CritV))
	}
	mBase, mHot := meanOf(base), meanOf(hot)
	t.Logf("mean critical voltage: isothermal %.4f vs thermal feedback %.4f", mBase, mHot)
	if mHot >= mBase {
		t.Errorf("thermal feedback did not deepen droops: %.4f vs %.4f", mHot, mBase)
	}
	// The effect is a perturbation, not a regime change.
	if mBase-mHot > 0.05 {
		t.Errorf("thermal feedback moved mean voltage by %.4f V; implausibly large", mBase-mHot)
	}
}

func TestPipelineOnDifferentFloorplan(t *testing.T) {
	// Generality: the whole flow runs on a 4-core (2x2) chip with larger
	// cores, not just the default 8-core floorplan.
	cfg := QuickConfig()
	cfg.Chip.CoresX, cfg.Chip.CoresY = 2, 2
	cfg.Chip.CoreWidth, cfg.Chip.CoreHeight = 6.0, 5.0
	cfg.Grid.NX, cfg.Grid.NY = 40, 30
	cfg.Warmup = 40
	cfg.TrainSteps = 200
	cfg.TrainMaps = 950
	cfg.TestSteps = 40
	cfg.CalibSteps = 80
	cfg.GLSampleCap = 400
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Chip.Cores) != 4 || p.Chip.NumBlocks() != 120 {
		t.Fatalf("chip shape: %d cores, %d blocks", len(p.Chip.Cores), p.Chip.NumBlocks())
	}
	_, union, err := p.ChipPlacementCount(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(union) != 8 {
		t.Fatalf("placed %d sensors, want 8 (2 per core)", len(union))
	}
	pred, err := p.BuildChipPredictor(union)
	if err != nil {
		t.Fatal(err)
	}
	rel := p.RelErrorOn(pred, p.TestAll())
	t.Logf("4-core chip: rel err %.4f%%, emergency fraction %.3f",
		100*rel, p.EmergencyFraction(p.TestAll()))
	if rel > 0.02 {
		t.Errorf("relative error %.4f implausibly large on the 4-core chip", rel)
	}
}

func TestTraceSourceString(t *testing.T) {
	if TraceMarkov.String() != "markov" || TraceUarch.String() != "uarch" {
		t.Error("TraceSource names wrong")
	}
	if TraceSource(9).String() == "" {
		t.Error("unknown source should stringify")
	}
}

func TestConfigValidationErrors(t *testing.T) {
	cfg := tinyConfig()
	cfg.TrainMaps = 5 // < 19 benchmarks
	if _, err := New(cfg); err == nil {
		t.Error("expected error for too few training maps")
	}
	cfg = tinyConfig()
	cfg.TrainMaps = 100000 // more than steps available
	if _, err := New(cfg); err == nil {
		t.Error("expected error for more maps than steps")
	}
}

// TestBatchedCollectionBitwiseMatchesFanout pins the pipeline-level batching
// contract: calibration, training and test traces collected one benchmark
// per simulator (BatchOff) equal, bitwise, those collected with the sparse
// backend forced and every benchmark in one lock-stepped multi-RHS
// BatchSimulator (BatchOn), and those collected on the banded backend in
// the one-group-per-worker interleaved sweeps BatchAuto resolves to.
func TestBatchedCollectionBitwiseMatchesFanout(t *testing.T) {
	base := tinyConfig()
	base.CalibSteps = 40
	base.TrainSteps = 80
	base.TrainMaps = 190
	base.TestSteps = 15

	for _, backend := range []pdn.Backend{pdn.Sparse, pdn.Banded} {
		cfgOff := base
		cfgOff.Backend = backend
		cfgOff.BatchTraces = BatchOff
		cfgOn := cfgOff
		cfgOn.BatchTraces = BatchOn
		if backend == pdn.Banded {
			cfgOn.BatchTraces = BatchAuto
		}
		pOff, err := New(cfgOff)
		if err != nil {
			t.Fatal(err)
		}
		pOn, err := New(cfgOn)
		if err != nil {
			t.Fatal(err)
		}
		n, workers := len(pOn.Bench), pOn.workers()
		if w := pOn.batchWidth(n); backend == pdn.Banded && w != (n+workers-1)/workers {
			t.Fatalf("banded BatchAuto resolved to width %d at %d workers, want ⌈%d/%d⌉", w, workers, n, workers)
		}
		samePipelineSamples(t, fmt.Sprintf("%v %v vs off", backend, cfgOn.BatchTraces), pOff, pOn)
	}
}

// samePipelineSamples requires two pipelines to hold bitwise-equal critical
// nodes, training maps and test maps.
func samePipelineSamples(t *testing.T, what string, a, b *Pipeline) {
	t.Helper()
	for blk := range a.CritNodes {
		if a.CritNodes[blk] != b.CritNodes[blk] {
			t.Fatalf("%s: critical node %d differs: %d vs %d", what, blk, a.CritNodes[blk], b.CritNodes[blk])
		}
	}
	if !mat.Equalish(a.Train.CandV, b.Train.CandV, 0) || !mat.Equalish(a.Train.CritV, b.Train.CritV, 0) {
		t.Fatalf("%s: training maps differ", what)
	}
	for bi := range a.TestByBench {
		if !mat.Equalish(a.TestByBench[bi].CandV, b.TestByBench[bi].CandV, 0) ||
			!mat.Equalish(a.TestByBench[bi].CritV, b.TestByBench[bi].CritV, 0) {
			t.Fatalf("%s: test set %d differs", what, bi)
		}
	}
}

// TestUseBatchResolution pins how Config.BatchTraces resolves into the
// number of benchmarks one simulator steps together: one group per worker
// under BatchAuto on a banded-resolved mesh, every benchmark when batching
// (BatchOn, or BatchAuto with the sparse backend), one under BatchOff, and
// never more than the benchmarks at hand.
func TestUseBatchResolution(t *testing.T) {
	cfg := tinyConfig() // 26x12 mesh resolves to Banded under Auto
	p := &Pipeline{Cfg: cfg, Grid: grid.Build(floorplan.New(cfg.Chip), cfg.Grid)}
	check := func(what string, n, want int) {
		t.Helper()
		if got := p.batchWidth(n); got != want {
			t.Fatalf("%s: width %d for %d benchmarks, want %d", what, got, n, want)
		}
	}
	p.Cfg.Workers = 2
	check("auto on banded, 2 workers", 19, 10)
	check("auto on banded, one benchmark", 1, 1)
	p.Cfg.Workers = 1
	check("auto on banded, 1 worker", 19, 19)
	p.Cfg.Workers = 4
	check("auto on banded, 4 workers", 19, 5)
	p.Cfg.Backend = pdn.Sparse
	check("auto on sparse", 19, 19)
	p.Cfg.BatchTraces = BatchOff
	check("off on sparse", 19, 1)
	p.Cfg.Backend = pdn.Auto
	check("off on banded", 19, 1)
	p.Cfg.BatchTraces = BatchOn
	check("on on banded", 19, 19)
	check("on, no benchmarks", 0, 0)
}
