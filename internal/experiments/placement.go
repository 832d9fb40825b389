package experiments

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"voltsense/internal/core"
	"voltsense/internal/lasso"
	"voltsense/internal/mat"
	"voltsense/internal/ols"
)

// CorePlacement is a per-core sensor selection with both local (dataset-row)
// and global (grid-candidate) indexing.
type CorePlacement struct {
	Core       int
	Lambda     float64   // λ used (0 when found via count targeting)
	LocalIdx   []int     // selected rows of the core dataset
	CandIdx    []int     // same sensors as indices into grid.Candidates
	GroupNorms []float64 // per core-candidate ‖β_m‖₂
}

// placeKey identifies a memoized placement. Exactly one of lambda/count is
// meaningful, disambiguated by byCount — unlike the old formatted-string key,
// a λ entry can never collide with a count entry, and lookups build no
// garbage.
type placeKey struct {
	core    int
	byCount bool
	lambda  float64
	count   int
}

func lambdaKey(c int, l float64) placeKey { return placeKey{core: c, lambda: l} }
func countKey(c, q int) placeKey          { return placeKey{core: c, byCount: true, count: q} }

// corePathState is one core's warm-started path solver plus the dataset
// indexing it was built from. Its mutex serializes the solver (PathSolver is
// single-threaded state); the per-core granularity lets ChipPlacement* run
// all cores concurrently.
type corePathState struct {
	mu      sync.Mutex
	ps      *lasso.PathSolver
	candIdx []int
}

// corePath returns core c's path state with its mutex HELD; the caller must
// unlock it. The solver is built lazily on first use: one dataset extraction,
// one standardization, one Gram for every λ and μ this core will ever see.
func (p *Pipeline) corePath(c int) *corePathState {
	p.placeMu.Lock()
	st, ok := p.pathState[c]
	if !ok {
		st = &corePathState{}
		p.pathState[c] = st
	}
	p.placeMu.Unlock()
	st.mu.Lock()
	if st.ps == nil {
		ds, candIdx := p.glTrainDataset(c)
		z, _ := mat.Standardize(ds.X)
		g, _ := mat.Standardize(ds.F)
		st.ps = lasso.NewPathSolver(z, g, p.placementSolver())
		st.candIdx = candIdx
	}
	return st
}

// placementSolver is the pipeline's solver configuration with the headroom
// placement needs: selection wants the support, not a polished optimum, and
// the count bisection in particular tolerates hitting the iteration
// ceiling, so the ceiling is raised to at least 3000.
func (p *Pipeline) placementSolver() lasso.Options {
	opts := p.Cfg.Solver
	if opts.MaxIter < 3000 {
		opts.MaxIter = 3000
	}
	return opts
}

func (p *Pipeline) threshold() float64 {
	if p.Cfg.Threshold != 0 {
		return p.Cfg.Threshold
	}
	return core.DefaultThreshold
}

func (p *Pipeline) cachedPlacement(key placeKey) (*CorePlacement, bool) {
	p.placeMu.Lock()
	pl, ok := p.placeCache[key]
	p.placeMu.Unlock()
	return pl, ok
}

func (p *Pipeline) storePlacement(key placeKey, pl *CorePlacement) {
	p.placeMu.Lock()
	p.placeCache[key] = pl
	p.placeMu.Unlock()
}

// PlaceCorePath places core c's sensors at every budget in lambdas through
// one warm-started path solve (shared Gram, descending λ, screening),
// returning placements in input order. Cached points are reused; only the
// missing budgets are solved.
func (p *Pipeline) PlaceCorePath(c int, lambdas []float64) ([]*CorePlacement, error) {
	out := make([]*CorePlacement, len(lambdas))
	var missing []int
	for i, l := range lambdas {
		if pl, ok := p.cachedPlacement(lambdaKey(c, l)); ok {
			out[i] = pl
		} else {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return out, nil
	}
	st := p.corePath(c)
	defer st.mu.Unlock()
	// Dense → sparse keeps each warm start close to the next optimum.
	sort.SliceStable(missing, func(a, b int) bool {
		return lambdas[missing[a]] > lambdas[missing[b]]
	})
	thr := p.threshold()
	for _, i := range missing {
		l := lambdas[i]
		res, _, err := st.ps.SolveConstrained(l)
		if err != nil && !errors.Is(err, lasso.ErrDidNotConverge) {
			return nil, fmt.Errorf("experiments: core %d λ=%v: %w", c, l, err)
		}
		sel := res.Select(thr)
		pl := &CorePlacement{
			Core:       c,
			Lambda:     l,
			LocalIdx:   sel,
			CandIdx:    mapIdx(st.candIdx, sel),
			GroupNorms: res.GroupNorms,
		}
		p.storePlacement(lambdaKey(c, l), pl)
		out[i] = pl
	}
	return out, nil
}

// PlaceCoreCount finds a per-core placement with exactly q sensors through
// the core's path solver's count bisection (PathSolver.SelectCount): one
// Gram for the whole search, each midpoint warm-started from the last.
// Results are cached per (core, q).
func (p *Pipeline) PlaceCoreCount(c, q int) (*CorePlacement, error) {
	if pl, ok := p.cachedPlacement(countKey(c, q)); ok {
		return pl, nil
	}
	st := p.corePath(c)
	defer st.mu.Unlock()
	sel, res, _, err := st.ps.SelectCount(q, p.threshold())
	if err != nil {
		return nil, fmt.Errorf("experiments: core %d: %w", c, err)
	}
	out := &CorePlacement{
		Core:       c,
		LocalIdx:   sel,
		CandIdx:    mapIdx(st.candIdx, sel),
		GroupNorms: res.GroupNorms,
	}
	p.storePlacement(countKey(c, q), out)
	return out, nil
}

// forEachCore runs fn(c) for every core concurrently on the mat worker pool
// (bounded by Config.Workers), collecting per-core errors into an indexed
// slice so the first-error rule is deterministic. Each core's placement
// state has its own lock, so cores proceed independently; the nested lasso
// kernels degrade to serial when the pool is saturated.
func (p *Pipeline) forEachCore(fn func(c int) error) error {
	nc := len(p.Chip.Cores)
	errs := make([]error, nc)
	mat.ParallelFor(nc, 1, p.workers(), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			errs[c] = fn(c)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// unionOf merges per-core global candidate selections, ascending.
func unionOf(placements []*CorePlacement) []int {
	var union []int
	for _, pl := range placements {
		union = append(union, pl.CandIdx...)
	}
	sort.Ints(union)
	return union
}

// ChipPlacementCount places q sensors in every core — cores solved
// concurrently — and returns the per-core placements (core order) plus the
// union of global candidate indices.
func (p *Pipeline) ChipPlacementCount(q int) ([]*CorePlacement, []int, error) {
	all := make([]*CorePlacement, len(p.Chip.Cores))
	err := p.forEachCore(func(c int) error {
		pl, err := p.PlaceCoreCount(c, q)
		all[c] = pl
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return all, unionOf(all), nil
}

// ChipPlacementPath runs every core's full λ path — cores concurrent, each
// core's budgets warm-started off one shared Gram — and returns placements
// indexed [lambda][core], lambdas in input order. This is the Table 1 sweep
// engine: nLambdas × nCores selections for nCores Gram builds.
func (p *Pipeline) ChipPlacementPath(lambdas []float64) ([][]*CorePlacement, error) {
	nc := len(p.Chip.Cores)
	perCore := make([][]*CorePlacement, nc)
	err := p.forEachCore(func(c int) error {
		pls, err := p.PlaceCorePath(c, lambdas)
		perCore[c] = pls
		return err
	})
	if err != nil {
		return nil, err
	}
	byLambda := make([][]*CorePlacement, len(lambdas))
	for li := range lambdas {
		byLambda[li] = make([]*CorePlacement, nc)
		for c := 0; c < nc; c++ {
			byLambda[li][c] = perCore[c][li]
		}
	}
	return byLambda, nil
}

// BuildChipPredictor refits the unbiased OLS model from the chosen sensors
// (global candidate indices) to every critical node, on the full training
// set.
func (p *Pipeline) BuildChipPredictor(sensors []int) (*core.Predictor, error) {
	ds := &core.Dataset{X: p.Train.CandV, F: p.Train.CritV}
	return core.BuildPredictor(ds, sensors)
}

// PredictTest evaluates a chip predictor over a sample set, returning the
// K-by-N predicted critical-node voltages.
func (p *Pipeline) PredictTest(pred *core.Predictor, s *SampleSet) *mat.Matrix {
	return pred.PredictDataset(&core.Dataset{X: s.CandV, F: s.CritV})
}

// RelErrorOn computes the aggregated relative prediction error of a chip
// predictor over a sample set.
func (p *Pipeline) RelErrorOn(pred *core.Predictor, s *SampleSet) float64 {
	return ols.RelativeError(p.PredictTest(pred, s), s.CritV)
}

func mapIdx(global, local []int) []int {
	out := make([]int, len(local))
	for i, l := range local {
		out[i] = global[l]
	}
	return out
}
