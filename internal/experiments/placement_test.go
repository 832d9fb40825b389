package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"voltsense/internal/core"
)

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPathPlacementMatchesColdPlaceSensors pins the tentpole equivalence at
// the pipeline level: the warm-started, screened path placements must select
// exactly the sensors an independent cold core.PlaceSensors solve picks for
// every (core, λ) cell of the sweep. The budgets are deliberately unsorted:
// PlaceCorePath solves them densest first and must return them in input
// order.
func TestPathPlacementMatchesColdPlaceSensors(t *testing.T) {
	p, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	lambdas := []float64{2, 4, 3}
	byLambda, err := p.ChipPlacementPath(lambdas)
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range lambdas {
		for c := range p.Chip.Cores {
			ds, candIdx := p.glTrainDataset(c)
			cold, err := core.PlaceSensors(ds, core.Config{
				Lambda:    l,
				Threshold: p.Cfg.Threshold,
				Solver:    p.placementSolver(), // the core solvers' options
			})
			if err != nil {
				t.Fatalf("cold core %d λ=%g: %v", c, l, err)
			}
			got := byLambda[li][c]
			if !intsEqual(got.LocalIdx, cold.Selected) {
				t.Errorf("core %d λ=%g: path selected %v, cold selected %v",
					c, l, got.LocalIdx, cold.Selected)
			}
			if !intsEqual(got.CandIdx, mapIdx(candIdx, cold.Selected)) {
				t.Errorf("core %d λ=%g: global index mismatch", c, l)
			}
		}
	}
}

// placeCoreAt places core c's sensors at the single budget lambda.
func placeCoreAt(p *Pipeline, c int, lambda float64) (*CorePlacement, error) {
	pls, err := p.PlaceCorePath(c, []float64{lambda})
	if err != nil {
		return nil, err
	}
	return pls[0], nil
}

// TestConcurrentPlacementConsistent hammers the placement cache and the
// per-core path solvers from many goroutines mixing λ- and count-targeted
// queries, then checks every answer against a serially computed pipeline.
// Selections must be identical; run it under -race to certify the locking.
func TestConcurrentPlacementConsistent(t *testing.T) {
	serial, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	conc, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	lambdas := []float64{2, 4}
	counts := []int{2, 3}

	type query struct {
		core    int
		byCount bool
		lambda  float64
		count   int
	}
	var queries []query
	for c := range serial.Chip.Cores {
		// The tiny grid leaves some cores without blank-area candidates;
		// those cannot host sensors at all.
		if len(serial.Grid.CandidatesInCore(c)) < 3 {
			continue
		}
		for _, l := range lambdas {
			queries = append(queries, query{core: c, lambda: l})
		}
		for _, q := range counts {
			queries = append(queries, query{core: c, byCount: true, count: q})
		}
	}
	want := make(map[string][]int)
	for _, q := range queries {
		var pl *CorePlacement
		var err error
		if q.byCount {
			pl, err = serial.PlaceCoreCount(q.core, q.count)
		} else {
			pl, err = placeCoreAt(serial, q.core, q.lambda)
		}
		if err != nil {
			t.Fatalf("serial %+v: %v", q, err)
		}
		want[fmt.Sprintf("%+v", q)] = pl.CandIdx
	}

	// Each query twice, all at once: exercises concurrent cache misses on
	// the same key as well as cross-key contention on one core's solver.
	var wg sync.WaitGroup
	errCh := make(chan error, 2*len(queries))
	for rep := 0; rep < 2; rep++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q query) {
				defer wg.Done()
				var pl *CorePlacement
				var err error
				if q.byCount {
					pl, err = conc.PlaceCoreCount(q.core, q.count)
				} else {
					pl, err = placeCoreAt(conc, q.core, q.lambda)
				}
				if err != nil {
					errCh <- fmt.Errorf("concurrent %+v: %w", q, err)
					return
				}
				if !intsEqual(pl.CandIdx, want[fmt.Sprintf("%+v", q)]) {
					errCh <- fmt.Errorf("concurrent %+v selected %v, serial %v",
						q, pl.CandIdx, want[fmt.Sprintf("%+v", q)])
				}
			}(q)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestPlacementDeterministicAcrossWorkerCounts: collection and both
// placement paths give equal outputs with Workers 1, 2 and 8, at
// GOMAXPROCS 1 and 2 — the benchmark groups and the cores are handed out
// one at a time from a shared counter, so which worker runs which item
// changes from run to run, but every result lands in its index slot.
func TestPlacementDeterministicAcrossWorkerCounts(t *testing.T) {
	lambdas := []float64{3}
	var ref *Pipeline
	var refPath [][]*CorePlacement
	var refCount []*CorePlacement
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 8} {
			cfg := tinyConfig()
			cfg.Grid.NX, cfg.Grid.NY = 52, 23 // every core holds candidates
			cfg.CalibSteps, cfg.TrainSteps, cfg.TrainMaps, cfg.TestSteps = 40, 80, 190, 15
			cfg.Workers = workers
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			path, err := p.ChipPlacementPath(lambdas)
			if err != nil {
				t.Fatal(err)
			}
			count, _, err := p.ChipPlacementCount(2)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref, refPath, refCount = p, path, count
				continue
			}
			what := fmt.Sprintf("procs %d workers %d", procs, workers)
			samePipelineSamples(t, what, ref, p)
			for li := range lambdas {
				for c := range path[li] {
					samePlacement(t, fmt.Sprintf("%s λ=%v core %d", what, lambdas[li], c), refPath[li][c], path[li][c])
				}
			}
			for c := range count {
				samePlacement(t, fmt.Sprintf("%s count core %d", what, c), refCount[c], count[c])
			}
		}
	}
}

// samePlacement requires equal selections and equal group norms.
func samePlacement(t *testing.T, what string, want, got *CorePlacement) {
	t.Helper()
	if !intsEqual(got.CandIdx, want.CandIdx) {
		t.Fatalf("%s: selected %v, want %v", what, got.CandIdx, want.CandIdx)
	}
	for j := range want.GroupNorms {
		if got.GroupNorms[j] != want.GroupNorms[j] {
			t.Fatalf("%s: group norm %d is %v, want %v", what, j, got.GroupNorms[j], want.GroupNorms[j])
		}
	}
}
