// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the ablations DESIGN.md calls out. Each benchmark iteration rebuilds
// its experiment from the shared quick pipeline with placement caches
// cleared, so timings reflect real work:
//
//	go test -bench=. -benchmem
//
// The substrate (chip + 19 benchmark transient simulations) is built once
// and shared; BenchmarkPipelineBuild measures that cost separately.
package voltsense

import (
	"errors"
	"sync"
	"testing"

	"voltsense/internal/core"
	"voltsense/internal/detect"
	"voltsense/internal/eagleeye"
	"voltsense/internal/experiments"
	"voltsense/internal/lasso"
	"voltsense/internal/mat"
	"voltsense/internal/vmap"
)

var (
	benchOnce sync.Once
	benchPipe *experiments.Pipeline
	benchErr  error
)

func benchPipeline(b *testing.B) *experiments.Pipeline {
	b.Helper()
	benchOnce.Do(func() {
		benchPipe, benchErr = experiments.New(experiments.QuickConfig())
	})
	if benchErr != nil {
		b.Fatalf("building pipeline: %v", benchErr)
	}
	return benchPipe
}

// BenchmarkPipelineBuild measures the substrate cost: floorplan, 19
// workload syntheses, and all transient power-grid simulations.
func BenchmarkPipelineBuild(b *testing.B) {
	cfg := experiments.QuickConfig()
	// A smaller build per iteration keeps the benchmark affordable while
	// still exercising every stage.
	cfg.TrainSteps = 200
	cfg.TrainMaps = 1000
	cfg.TestSteps = 40
	cfg.CalibSteps = 60
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the λ sweep: per-core group-lasso placement
// at six budgets plus the OLS refit and held-out scoring.
func BenchmarkTable1(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ClearPlacementCache()
		d, err := p.Table1(nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure1 regenerates the group-norm profiles at the two budgets.
func BenchmarkFigure1(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ClearPlacementCache()
		if _, err := p.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the predicted-vs-real voltage trace,
// including a fresh transient simulation window.
func BenchmarkFigure2(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ClearPlacementCache()
		if _, err := p.Figure2(0, 14, 150); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates the placement-location comparison.
func BenchmarkFigure3(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ClearPlacementCache()
		if _, err := p.Figure3(0, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates the 19-benchmark detection-error comparison.
func BenchmarkTable2(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ClearPlacementCache()
		d, err := p.Table2(2)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Rows) != 19 {
			b.Fatalf("rows = %d", len(d.Rows))
		}
	}
}

// BenchmarkFigure4 regenerates the sensor-budget sweep for one benchmark.
func BenchmarkFigure4(b *testing.B) {
	p := benchPipeline(b)
	bench := p.BusiestBenchmark()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ClearPlacementCache()
		if _, err := p.Figure4(bench, 1, 2, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGLDirect measures the Eq. 14 vs Eq. 20 comparison (the
// bias the OLS refit removes).
func BenchmarkAblationGLDirect(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := p.AblationGLDirect(4)
		if err != nil {
			b.Fatal(err)
		}
		if d.RelErrRefit >= d.RelErrGL {
			b.Fatal("refit lost to biased model")
		}
	}
}

// BenchmarkAblationSolvers compares the two group-lasso solvers on the same
// core-0 instance: the constrained FISTA production path (a fresh path
// solver's cold solve) and the penalized BCD used for count targeting.
func BenchmarkAblationSolvers(b *testing.B) {
	p := benchPipeline(b)
	ds, _ := p.CoreDataset(0, p.Train)
	z, _ := mat.Standardize(ds.X)
	g, _ := mat.Standardize(ds.F)
	// Fixed iteration budget, selection-grade tolerance: the benchmark
	// measures solver throughput, so an unconverged tail is acceptable.
	opts := lasso.Options{MaxIter: 1000, Tol: 1e-5}
	b.Run("ConstrainedFISTA", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := lasso.NewPathSolver(z, g, opts).SolveConstrained(4); err != nil && !errors.Is(err, lasso.ErrDidNotConverge) {
				b.Fatal(err)
			}
		}
	})
	b.Run("PenalizedBCD", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lasso.SolvePenalized(z, g, 50, opts); err != nil && !errors.Is(err, lasso.ErrDidNotConverge) {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationEagleEye measures the baseline's chip-wide greedy
// placement.
func BenchmarkAblationEagleEye(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := eagleeye.Place(p.Train.CandV, p.Train.CritV, p.Cfg.Vth, 16)
		if len(pl.Selected) != 16 {
			b.Fatal("placement failed")
		}
	}
}

// BenchmarkVoltageMapTrain measures fitting the full-chip map generator.
func BenchmarkVoltageMapTrain(b *testing.B) {
	p := benchPipeline(b)
	_, sensors, err := p.ChipPlacementCount(2)
	if err != nil {
		b.Fatal(err)
	}
	sx := p.Train.CandV.SelectRows(sensors)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vmap.Train(sx, p.Train.CandV); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimePrediction measures the paper's runtime claim: evaluating
// Eq. 20 for all 240 blocks from one sensor reading is trivially cheap
// compared to any simulation.
func BenchmarkRuntimePrediction(b *testing.B) {
	p := benchPipeline(b)
	_, sensors, err := p.ChipPlacementCount(2)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := p.BuildChipPredictor(sensors)
	if err != nil {
		b.Fatal(err)
	}
	reading := make([]float64, len(sensors))
	for i, s := range sensors {
		reading[i] = p.Train.CandV.At(s, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := pred.Predict(reading)
		if len(f) != p.Chip.NumBlocks() {
			b.Fatal("bad prediction size")
		}
	}
}

// BenchmarkEmergencyScoring measures detection-rate computation over the
// pooled held-out set.
func BenchmarkEmergencyScoring(b *testing.B) {
	p := benchPipeline(b)
	test := p.TestAll()
	truth := detect.TruthFromVoltages(test.CritV, p.Cfg.Vth)
	_, sensors, err := p.ChipPlacementCount(2)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := p.BuildChipPredictor(sensors)
	if err != nil {
		b.Fatal(err)
	}
	predicted := p.PredictTest(pred, test)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alarms := detect.AlarmsFromPredictions(predicted, p.Cfg.Vth)
		r := detect.Score(truth, alarms)
		if r.Samples == 0 {
			b.Fatal("no samples")
		}
	}
}

// sanity check: the facade compiles into the same types the benches use.
var _ = core.DefaultThreshold
