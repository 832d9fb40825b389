package experiments

import (
	"errors"
	"sync"
	"testing"

	"voltsense/internal/basis"
	"voltsense/internal/core"
	"voltsense/internal/lasso"
	"voltsense/internal/mat"
)

// The placement benchmarks share one built pipeline: collection cost is
// measured separately, and rebuilding the substrate per iteration would
// swamp the solver time being compared.
var (
	benchOnce sync.Once
	benchPipe *Pipeline
	benchErr  error
)

func benchPipeline(b *testing.B) *Pipeline {
	benchOnce.Do(func() {
		benchPipe, benchErr = New(tinyConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchPipe
}

// BenchmarkPlacementPathWarm sweeps the full (core, λ) placement grid the
// way Table 1 now does: cores concurrent, each core solving its λ path off
// one Gram with warm starts and screening. The cache is cleared every
// iteration so real solves are measured.
func BenchmarkPlacementPathWarm(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ClearPlacementCache()
		if _, err := p.ChipPlacementPath(p.Cfg.Lambdas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementColdPerPoint is the pre-path baseline: every (core, λ)
// cell solved independently by core.PlaceSensors — fresh standardization,
// fresh Gram, zero start — exactly what the serial Table 1 loop used to do.
// benchreport pairs this against BenchmarkPlacementPathWarm.
func BenchmarkPlacementColdPerPoint(b *testing.B) {
	p := benchPipeline(b)
	opts := p.Cfg.Solver
	if opts.MaxIter < 3000 {
		opts.MaxIter = 3000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := range p.Chip.Cores {
			ds, _ := p.glTrainDataset(c)
			for _, l := range p.Cfg.Lambdas {
				if _, err := core.PlaceSensors(ds, core.Config{
					Lambda:    l,
					Threshold: p.Cfg.Threshold,
					Solver:    opts,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// collectBench builds the whole pipeline — calibration scan plus training
// and held-out trace collection across every benchmark — at the given worker
// count. This is the end-to-end collection cost benchreport tracks.
func collectBench(b *testing.B, workers int) {
	cfg := tinyConfig()
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectSerial pins trace collection to one worker.
func BenchmarkCollectSerial(b *testing.B) { collectBench(b, 1) }

// BenchmarkCollectParallel runs trace collection at the default worker count
// (GOMAXPROCS); benchreport pairs it against BenchmarkCollectSerial for the
// multi-core speedup number.
func BenchmarkCollectParallel(b *testing.B) { collectBench(b, 0) }

// chipBenchLambdas is the λ ladder of the chip-joint benchmarks. Chip-joint
// group norms aggregate K = NumBlocks targets instead of a core's ~30, so
// the useful budgets sit well above the per-core Table 1 sweep.
var chipBenchLambdas = []float64{32, 24, 16, 12, 8, 4}

// BenchmarkPlaceChipDense vs BenchmarkPlaceChipReduced: one chip-joint
// placement solved against all K critical nodes versus the same solve in
// the 99%-energy POD coefficient space (r ≪ K). benchreport pairs them for
// the reduced-basis speedup number.
func BenchmarkPlaceChipDense(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PlaceChipDense(12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlaceChipReduced(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PlaceChipReduced(12, basis.Config{Energy: 0.99}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlaceChipPathDense vs BenchmarkPlaceChipPathReduced: the full
// chip-joint λ path, where the one-time basis fit amortizes across the
// sweep and the per-iteration O(r/K) saving compounds. Each iteration
// standardizes the chip-joint dataset, optionally projects the targets onto
// a 99%-energy POD basis, and drives one path solver down the ladder.
func BenchmarkPlaceChipPathDense(b *testing.B) { benchChipPath(b, false) }

func BenchmarkPlaceChipPathReduced(b *testing.B) { benchChipPath(b, true) }

func benchChipPath(b *testing.B, reduced bool) {
	p := benchPipeline(b)
	ds := p.chipTrainDataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z, _ := mat.Standardize(ds.X)
		g, _ := mat.Standardize(ds.F)
		if reduced {
			bs, err := basis.Fit(g, basis.Config{Energy: 0.99})
			if err != nil {
				b.Fatal(err)
			}
			if g, err = bs.Project(g); err != nil {
				b.Fatal(err)
			}
		}
		ps := lasso.NewPathSolver(z, g, p.Cfg.Solver)
		for _, l := range chipBenchLambdas {
			if _, _, err := ps.SolveConstrained(l); err != nil && !errors.Is(err, lasso.ErrDidNotConverge) {
				b.Fatal(err)
			}
		}
	}
}
