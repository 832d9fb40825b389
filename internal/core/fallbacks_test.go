package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"voltsense/internal/mat"
	"voltsense/internal/ols"
)

func fallbackFixture(t *testing.T, budget int) (*Dataset, *Predictor) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ds := syntheticDataset(rng, 12, 4, 400, []int{1, 4, 8, 10}, 0.002)
	pred, err := BuildPredictorWithFallbacks(ds, []int{1, 4, 8, 10}, budget)
	if err != nil {
		t.Fatal(err)
	}
	return ds, pred
}

func TestFitFallbacksShape(t *testing.T) {
	_, pred := fallbackFixture(t, 2)
	fb := pred.Fallbacks
	if fb == nil {
		t.Fatal("no fallbacks fitted")
	}
	if len(fb.Stats) != 4 {
		t.Fatalf("stats for %d sensors, want 4", len(fb.Stats))
	}
	for i, s := range fb.Stats {
		if s.Std <= 0 || math.Abs(s.Mean-1.0) > 0.2 {
			t.Fatalf("implausible training stats for sensor %d: %+v", i, s)
		}
	}
	// 4 leave-one-out singletons plus one depth-2 chain entry.
	if len(fb.Models) != 5 {
		t.Fatalf("%d fallback models, want 5", len(fb.Models))
	}
	if n := len(fb.Models[4].Excluded); n != 2 {
		t.Fatalf("chain entry excludes %d sensors, want 2", n)
	}
	seen := map[int]bool{}
	for _, fm := range fb.Models[:4] {
		if len(fm.Excluded) != 1 {
			t.Fatalf("singleton model excludes %v", fm.Excluded)
		}
		seen[fm.Excluded[0]] = true
		if fm.Model.NumInputs() != 3 {
			t.Fatalf("leave-one-out model has %d inputs", fm.Model.NumInputs())
		}
		if fm.RelError <= 0 || fm.RelError > 0.5 {
			t.Fatalf("implausible training error %v for excluded %v", fm.RelError, fm.Excluded)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("singletons cover %d sensors, want all 4", len(seen))
	}
	chain := fb.Models[4]
	if len(chain.Excluded) != 2 || chain.Model.NumInputs() != 2 {
		t.Fatalf("chain model: excluded %v, inputs %d", chain.Excluded, chain.Model.NumInputs())
	}
}

func TestFallbackLookup(t *testing.T) {
	_, pred := fallbackFixture(t, 2)
	fb := pred.Fallbacks
	if fb.Lookup(nil) != nil {
		t.Fatal("empty faulty set should route to the primary, not a fallback")
	}
	for i := 0; i < 4; i++ {
		fm := fb.Lookup([]int{i})
		if fm == nil {
			t.Fatalf("no fallback for single failure of sensor %d", i)
		}
		if !reflect.DeepEqual(fm.Excluded, []int{i}) {
			t.Fatalf("single failure %d routed to excluded %v (want the exact leave-one-out)", i, fm.Excluded)
		}
	}
	chain := fb.Models[4].Excluded
	if fm := fb.Lookup(chain); fm == nil || len(fm.Excluded) != 2 {
		t.Fatalf("chain pair %v not covered", chain)
	}
	// A pair off the chain is uncovered at budget 2.
	var offChain []int
	for a := 0; a < 4 && offChain == nil; a++ {
		for b := a + 1; b < 4; b++ {
			if !(contains(chain, a) && contains(chain, b)) {
				offChain = []int{a, b}
				break
			}
		}
	}
	if fm := fb.Lookup(offChain); fm != nil {
		t.Fatalf("off-chain pair %v claims coverage by %v", offChain, fm.Excluded)
	}
}

func TestFallbackPredictFullIgnoresExcluded(t *testing.T) {
	_, pred := fallbackFixture(t, 1)
	fm := pred.Fallbacks.Lookup([]int{2})
	x := []float64{1.01, 0.99, 1.02, 0.98}
	want := fm.PredictFull(x)
	x[2] = math.NaN() // the failed sensor's reading must never be read
	got := fm.PredictFull(x)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("excluded reading leaked into prediction: %v vs %v", want, got)
		}
	}
}

func TestFallbackAccuracyDegradesGracefully(t *testing.T) {
	ds, pred := fallbackFixture(t, 1)
	xs := ds.X.SelectRows(pred.Selected)
	primaryErr := ols.RelativeError(pred.Model.PredictMatrix(xs), ds.F)
	for _, fm := range pred.Fallbacks.Models {
		if fm.RelError < primaryErr {
			t.Fatalf("fallback excluding %v beats the full model (%v < %v)", fm.Excluded, fm.RelError, primaryErr)
		}
		if fm.RelError > 20*primaryErr+0.05 {
			t.Fatalf("fallback excluding %v collapsed: %v vs primary %v", fm.Excluded, fm.RelError, primaryErr)
		}
	}
}

func TestSaveLoadRoundTripWithFallbacks(t *testing.T) {
	_, pred := fallbackFixture(t, 2)
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fallbacks == nil {
		t.Fatal("fallbacks lost in round-trip")
	}
	if len(got.Fallbacks.Models) != len(pred.Fallbacks.Models) {
		t.Fatalf("%d models after round-trip, want %d", len(got.Fallbacks.Models), len(pred.Fallbacks.Models))
	}
	x := []float64{1.01, 0.99, 1.02, 0.98}
	for i := range pred.Fallbacks.Models {
		a := pred.Fallbacks.Models[i].PredictFull(x)
		b := got.Fallbacks.Models[i].PredictFull(x)
		for j := range a {
			if math.Abs(a[j]-b[j]) > 1e-15 {
				t.Fatalf("fallback %d prediction drifted after round-trip", i)
			}
		}
	}
	if !reflect.DeepEqual(got.Fallbacks.Stats, pred.Fallbacks.Stats) {
		t.Fatal("sensor stats drifted after round-trip")
	}
}

func TestFitFallbacksValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds := syntheticDataset(rng, 6, 2, 200, []int{1, 3}, 0.002)
	if _, err := FitFallbacks(ds, []int{1}, 1); err == nil {
		t.Error("single-sensor selection accepted")
	}
	if _, err := FitFallbacks(ds, []int{1, 3}, 2); err == nil {
		t.Error("budget leaving zero sensors accepted")
	}
	if _, err := FitFallbacks(ds, []int{1, 3}, 0); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestBuildPredictorRejectsBadSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := syntheticDataset(rng, 6, 2, 200, []int{1, 3}, 0.002)
	if _, err := BuildPredictor(ds, []int{1, 1}); err == nil {
		t.Error("duplicate selected sensor accepted")
	}
	if _, err := BuildPredictor(ds, []int{3, 1}); err == nil {
		t.Error("descending selection accepted")
	}
	if _, err := BuildPredictor(ds, []int{1, 6}); err == nil {
		t.Error("out-of-range selection accepted")
	}
}

// refitFallbacks is the oracle FitFallbacks must match: the same depth-1
// sweep and greedy chain, with every model refit from the raw samples by
// ols.Fit on the kept sensors and scored by predicting the training set.
func refitFallbacks(ds *Dataset, selected []int, budget int) (*FallbackSet, error) {
	if err := ds.Check(); err != nil {
		return nil, err
	}
	if err := checkFallbackBudget(len(selected), budget); err != nil {
		return nil, err
	}
	q := len(selected)
	fs := &FallbackSet{Stats: SensorTrainingStats(ds, selected)}
	bestSingle, bestErr := -1, math.Inf(1)
	for i := 0; i < q; i++ {
		fm, err := refitExcluding(ds, selected, []int{i})
		if err != nil {
			return nil, fmt.Errorf("core: leave-one-out fallback excluding sensor %d: %w", i, err)
		}
		fs.Models = append(fs.Models, *fm)
		if fm.RelError < bestErr {
			bestSingle, bestErr = i, fm.RelError
		}
	}
	chain := []int{bestSingle}
	for depth := 2; depth <= budget; depth++ {
		var bestModel *FallbackModel
		bestNext := -1
		for j := 0; j < q; j++ {
			if contains(chain, j) {
				continue
			}
			ex := append(append([]int(nil), chain...), j)
			sort.Ints(ex)
			fm, err := refitExcluding(ds, selected, ex)
			if err != nil {
				continue
			}
			if bestModel == nil || fm.RelError < bestModel.RelError {
				bestModel, bestNext = fm, j
			}
		}
		if bestModel == nil {
			return nil, fmt.Errorf("core: no fittable leave-%d-out fallback extends the chain %v", depth, chain)
		}
		fs.Models = append(fs.Models, *bestModel)
		chain = append(chain, bestNext)
	}
	return fs, nil
}

func refitExcluding(ds *Dataset, selected, excluded []int) (*FallbackModel, error) {
	var kept []int
	ex := 0
	for i, s := range selected {
		if ex < len(excluded) && excluded[ex] == i {
			ex++
			continue
		}
		kept = append(kept, s)
	}
	xs := ds.X.SelectRows(kept)
	m, err := ols.Fit(xs, ds.F)
	if err != nil {
		return nil, err
	}
	fm := &FallbackModel{
		Excluded: append([]int(nil), excluded...),
		Model:    m,
		RelError: ols.RelativeError(m.PredictMatrix(xs), ds.F),
	}
	fm.buildKeep(len(selected))
	return fm, nil
}

// sameFallbacks fails unless got and want hold the same models in the same
// order: equal Excluded sets, α and c within 1e-9, RelError within 1e-9
// relative.
func sameFallbacks(t *testing.T, got, want *FallbackSet) {
	t.Helper()
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatal("sensor stats differ from the refit oracle")
	}
	if len(got.Models) != len(want.Models) {
		t.Fatalf("%d models, oracle %d", len(got.Models), len(want.Models))
	}
	for i := range want.Models {
		g, w := &got.Models[i], &want.Models[i]
		if !reflect.DeepEqual(g.Excluded, w.Excluded) || !reflect.DeepEqual(g.keep, w.keep) {
			t.Fatalf("model %d excludes %v, oracle %v", i, g.Excluded, w.Excluded)
		}
		if !mat.Equalish(g.Model.Alpha, w.Model.Alpha, 1e-9) {
			t.Fatalf("model %d (excluding %v): alpha differs from the refit by more than 1e-9", i, g.Excluded)
		}
		for k, c := range w.Model.C {
			if math.Abs(g.Model.C[k]-c) > 1e-9 {
				t.Fatalf("model %d (excluding %v): c[%d] = %v, refit %v", i, g.Excluded, k, g.Model.C[k], c)
			}
		}
		if d := math.Abs(g.RelError-w.RelError) / w.RelError; d > 1e-9 {
			t.Fatalf("model %d (excluding %v): RelError %v, refit %v", i, g.Excluded, g.RelError, w.RelError)
		}
	}
}

func TestFitFallbacksMatchesRefit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := syntheticDataset(rng, 12, 4, 400, []int{1, 4, 8, 10}, 0.002)

	// Near-collinear: sensor 5 tracks sensor 4 at correlation >= 0.9999.
	collinear := &Dataset{X: base.X.Clone(), F: base.F}
	for j, v := range collinear.X.Row(4) {
		collinear.X.Set(5, j, v+5e-4*rng.NormFloat64())
	}
	if r := mat.Correlation(collinear.X.Row(4), collinear.X.Row(5)); r < 0.9999 {
		t.Fatalf("collinear fixture correlation %v", r)
	}

	wide, served := servedFallbackFixture()

	for _, tc := range []struct {
		name     string
		ds       *Dataset
		selected []int
		budget   int
	}{
		{"fixture", base, []int{1, 4, 8, 10}, 2},
		{"fixture budget 3", base, []int{1, 4, 8, 10}, 3},
		{"near-collinear", collinear, []int{1, 4, 5, 8, 10}, 3},
		{"served shape", wide, served, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := FitFallbacks(tc.ds, tc.selected, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refitFallbacks(tc.ds, tc.selected, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			sameFallbacks(t, got, want)
		})
	}
}

// A selection that repeats a sensor leaves some leave-one-out models
// rank-deficient: FitFallbacks fails at the same position, with the same
// error, as the refit oracle.
func TestFitFallbacksDuplicateSensorError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := syntheticDataset(rng, 12, 4, 400, []int{1, 4, 8, 10}, 0.002)
	sel := []int{4, 4, 1, 8}
	_, err := FitFallbacks(ds, sel, 2)
	_, want := refitFallbacks(ds, sel, 2)
	if err == nil || want == nil {
		t.Fatalf("duplicated sensor accepted: error %v, oracle %v", err, want)
	}
	if err.Error() != want.Error() || !errors.Is(err, mat.ErrSingular) {
		t.Fatalf("error %q, oracle %q", err, want)
	}
}
