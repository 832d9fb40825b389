package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"voltsense/internal/faults"
	"voltsense/internal/ols"
)

// FallbackModel is one leave-k-out Eq. 17 refit: the same unbiased OLS
// model, fitted at placement time on the selected sensors minus Excluded,
// so the runtime can keep predicting when those sensors fail. Excluded
// holds positions into Predictor.Selected (0..Q-1), ascending — the
// positions of a reading vector, not global candidate indices.
type FallbackModel struct {
	Excluded []int
	Model    *ols.Model
	RelError float64 // training relative error of this submodel

	keep []int // complement of Excluded in 0..Q-1, precomputed
}

// buildKeep computes the kept reading-vector positions for q sensors.
func (fm *FallbackModel) buildKeep(q int) {
	fm.keep = fm.keep[:0]
	ex := 0
	for i := 0; i < q; i++ {
		if ex < len(fm.Excluded) && fm.Excluded[ex] == i {
			ex++
			continue
		}
		fm.keep = append(fm.keep, i)
	}
}

// PredictFull evaluates the submodel on a full-length reading vector
// (length Q, ordered as Predictor.Selected), reading only the kept
// positions. Values at excluded positions are never touched, so they may be
// NaN, stale, or garbage.
func (fm *FallbackModel) PredictFull(readings []float64) []float64 {
	x := make([]float64, len(fm.keep))
	for i, p := range fm.keep {
		x[i] = readings[p]
	}
	return fm.Model.Predict(x)
}

// FallbackSet is the optional fault-tolerance payload of a predictor: the
// per-sensor training statistics the runtime detector judges against, and
// the precomputed leave-k-out submodels. Models holds every leave-one-out
// singleton first, then the greedy nested chain for deeper failures
// (Excluded sets of size 2..budget, each extending the previous by the
// least-damaging additional sensor).
type FallbackSet struct {
	Stats  []faults.SensorStats
	Models []FallbackModel
}

// Lookup returns the narrowest fallback whose Excluded set covers every
// faulty position (faulty ascending), or nil when the failure set is
// uncovered. A superset match is valid — a model that additionally ignores
// a healthy sensor still reads only healthy sensors — so single failures
// hit their exact leave-one-out model and deeper failures fall through to
// the greedy chain.
func (fs *FallbackSet) Lookup(faulty []int) *FallbackModel {
	if len(faulty) == 0 {
		return nil
	}
	var best *FallbackModel
	for i := range fs.Models {
		fm := &fs.Models[i]
		if !containsAll(fm.Excluded, faulty) {
			continue
		}
		if best == nil || len(fm.Excluded) < len(best.Excluded) {
			best = fm
		}
	}
	return best
}

// containsAll reports whether sorted superset contains every element of
// sorted subset.
func containsAll(superset, subset []int) bool {
	i := 0
	for _, want := range subset {
		for i < len(superset) && superset[i] < want {
			i++
		}
		if i >= len(superset) || superset[i] != want {
			return false
		}
		i++
	}
	return true
}

// SensorTrainingStats computes each selected sensor's raw-reading mean and
// standard deviation over the training samples — the reference distribution
// the runtime fault detector needs.
func SensorTrainingStats(ds *Dataset, selected []int) []faults.SensorStats {
	out := make([]faults.SensorStats, len(selected))
	n := float64(ds.X.Cols())
	for i, s := range selected {
		row := ds.X.Row(s)
		sum, sumSq := 0.0, 0.0
		for _, v := range row {
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		out[i] = faults.SensorStats{Mean: mean, Std: math.Sqrt(variance)}
	}
	return out
}

// FitFallbacks fits the leave-k-out submodels for a placement: every
// leave-one-out model (any single sensor may fail), then a greedy nested
// chain up to budget simultaneous failures — at each depth the chain drops
// the additional sensor whose exclusion costs the least training error.
// The chain trades coverage for artifact size: deeper failures are served
// only along the chain, and anything else trips the runtime's degraded
// mode. budget must be in 1..Q-1 (at least one sensor must survive).
//
// Every submodel comes from one QR factorization of the selected sensors'
// design by Givens column deletion (ols.Factorization.Drop), so each costs
// O(Q²·K) instead of a refit over the N samples, and its training error
// comes from the rotated-out residual without predicting the training set.
func FitFallbacks(ds *Dataset, selected []int, budget int) (*FallbackSet, error) {
	if err := ds.Check(); err != nil {
		return nil, err
	}
	if err := checkFallbackBudget(len(selected), budget); err != nil {
		return nil, err
	}
	fz, err := ols.Factor(ds.X.SelectRows(selected), ds.F)
	if err != nil {
		return nil, fmt.Errorf("core: fallback factorization: %w", err)
	}
	return fitFallbacks(ds, selected, budget, fz)
}

// checkFallbackBudget validates a failure budget for q selected sensors.
func checkFallbackBudget(q, budget int) error {
	if q < 2 {
		return errors.New("core: fallbacks need at least 2 selected sensors")
	}
	if budget < 1 || budget > q-1 {
		return fmt.Errorf("core: fallback budget %d out of 1..%d", budget, q-1)
	}
	return nil
}

// fitFallbacks is FitFallbacks from the factorization fz of the full
// selection.
func fitFallbacks(ds *Dataset, selected []int, budget int, fz *ols.Factorization) (*FallbackSet, error) {
	q := len(selected)
	fs := &FallbackSet{Stats: SensorTrainingStats(ds, selected)}

	// Depth 1: exact leave-one-out for every sensor.
	bestSingle := -1
	var chainFz *ols.Factorization
	for i := 0; i < q; i++ {
		sub := fz.Drop(i)
		fm, err := fallbackModel(sub, []int{i}, q)
		if err != nil {
			return nil, fmt.Errorf("core: leave-one-out fallback excluding sensor %d: %w", i, err)
		}
		fs.Models = append(fs.Models, *fm)
		if chainFz == nil || fm.RelError < chainFz.RelError() {
			bestSingle, chainFz = i, sub
		}
	}

	// Depths 2..budget: grow the greedy chain from the cheapest singleton.
	// chainFz covers the sensors outside the chain, in ascending position.
	chain := []int{bestSingle}
	for depth := 2; depth <= budget; depth++ {
		var best *ols.Factorization
		bestNext := -1
		col := 0 // j's column in chainFz
		for j := 0; j < q; j++ {
			if contains(chain, j) {
				continue
			}
			sub := chainFz.Drop(col)
			col++
			if sub.Check() != nil {
				// This subset is unfittable (rank-deficient); other
				// extensions may still work.
				continue
			}
			if best == nil || sub.RelError() < best.RelError() {
				best, bestNext = sub, j
			}
		}
		if best == nil {
			return nil, fmt.Errorf("core: no fittable leave-%d-out fallback extends the chain %v", depth, chain)
		}
		chain = append(chain, bestNext)
		ex := append([]int(nil), chain...)
		sort.Ints(ex)
		fm, err := fallbackModel(best, ex, q)
		if err != nil {
			return nil, err
		}
		fs.Models = append(fs.Models, *fm)
		chainFz = best
	}
	return fs, nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// fallbackModel solves the factorization of the selection minus the
// excluded positions for its Eq. 17 model.
func fallbackModel(fz *ols.Factorization, excluded []int, q int) (*FallbackModel, error) {
	m, err := fz.Model()
	if err != nil {
		return nil, err
	}
	fm := &FallbackModel{Excluded: excluded, Model: m, RelError: fz.RelError()}
	fm.buildKeep(q)
	return fm, nil
}

// BuildPredictorWithFallbacks runs Steps 6-8 plus the fault-tolerance tier:
// the primary Eq. 17 refit and a FallbackSet at the given failure budget,
// ready to serialize into the artifact's `fallbacks` section. The primary
// model and every fallback come from one factorization.
func BuildPredictorWithFallbacks(ds *Dataset, selected []int, budget int) (*Predictor, error) {
	p, fz, err := buildPredictor(ds, selected)
	if err != nil {
		return nil, err
	}
	if err := checkFallbackBudget(len(selected), budget); err != nil {
		return nil, err
	}
	if p.Fallbacks, err = fitFallbacks(ds, selected, budget, fz); err != nil {
		return nil, err
	}
	return p, nil
}
