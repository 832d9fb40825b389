package core

import (
	"math/rand"
	"slices"
	"testing"

	"voltsense/internal/basis"
	"voltsense/internal/ols"
)

// TestReducedFullRankMatchesDense is the golden equivalence satellite: at
// r = K the POD basis is a square orthogonal rotation of the targets, FISTA
// commutes with it, and the reduced placement must reproduce the dense
// sensor selections exactly — same dataset, same λ values, same solver
// options.
func TestReducedFullRankMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	trueIdx := []int{3, 11, 19}
	ds := syntheticDataset(rng, 24, 6, 600, trueIdx, 0.001)
	for _, l := range []float64{4, 3, 2} {
		dense, err := PlaceSensors(ds, Config{Lambda: l})
		if err != nil {
			t.Fatal(err)
		}
		reduced, err := PlaceSensorsReduced(ds, Config{Lambda: l}, basis.Config{Rank: ds.F.Rows()})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dense.Selected, reduced.Selected) {
			t.Fatalf("λ=%v: dense selected %v, reduced %v", l, dense.Selected, reduced.Selected)
		}
		if reduced.Basis.Rank() != ds.F.Rows() {
			t.Fatalf("basis rank %d, want full %d", reduced.Basis.Rank(), ds.F.Rows())
		}
	}
}

// TestReducedLowRankStillFindsDrivers: with targets driven by a few true
// sensors, even an aggressively truncated basis keeps the driver structure
// and the reduced placement recovers the planted indices.
func TestReducedLowRankStillFindsDrivers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	trueIdx := []int{5, 17}
	ds := syntheticDataset(rng, 28, 8, 800, trueIdx, 0.001)
	rp, err := PlaceSensorsReduced(ds, Config{Lambda: 3}, basis.Config{Energy: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Basis.Rank() >= ds.F.Rows() {
		t.Fatalf("0.99-energy basis did not compress: rank %d of %d", rp.Basis.Rank(), ds.F.Rows())
	}
	found := map[int]bool{}
	for _, s := range rp.Selected {
		found[s] = true
	}
	for _, want := range trueIdx {
		if !found[want] {
			t.Fatalf("reduced placement %v missed planted driver %d", rp.Selected, want)
		}
	}
}

// TestBuildReducedPredictorFullRankMatchesOLS: at full rank the lifted
// reduced refit equals the dense OLS refit up to roundoff.
func TestBuildReducedPredictorFullRankMatchesOLS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train, test := splitDataset(rng, 20, 5, 600, 100, []int{2, 9, 15}, 0.002)
	selected := []int{2, 9, 15}

	densePred, err := BuildPredictor(train, selected)
	if err != nil {
		t.Fatal(err)
	}
	redPred, b, err := BuildReducedPredictor(train, selected, basis.Config{Rank: train.F.Rows()})
	if err != nil {
		t.Fatal(err)
	}
	if b.Rank() != train.F.Rows() {
		t.Fatalf("refit basis rank %d, want %d", b.Rank(), train.F.Rows())
	}
	de := ols.RelativeError(densePred.PredictDataset(test), test.F)
	re := ols.RelativeError(redPred.PredictDataset(test), test.F)
	if diff := re - de; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("full-rank reduced refit error %g vs dense %g", re, de)
	}
}

// TestBuildReducedPredictorTruncationDegradesGracefully: the rank knob
// trades accuracy monotonically-ish — a 99%-energy model stays close to
// dense while a rank-1 model is clearly worse, confirming the trade-off is
// real and measurable.
func TestBuildReducedPredictorTruncationDegradesGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train, test := splitDataset(rng, 24, 10, 700, 150, []int{4, 12, 20}, 0.01)
	selected := []int{4, 12, 20}

	densePred, err := BuildPredictor(train, selected)
	if err != nil {
		t.Fatal(err)
	}
	de := ols.RelativeError(densePred.PredictDataset(test), test.F)

	highPred, b, err := BuildReducedPredictor(train, selected, basis.Config{Energy: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	he := ols.RelativeError(highPred.PredictDataset(test), test.F)
	if he > de*1.5+0.05 {
		t.Fatalf("99.9%%-energy refit error %g far above dense %g (rank %d)", he, de, b.Rank())
	}

	onePred, _, err := BuildReducedPredictor(train, selected, basis.Config{Rank: 1})
	if err != nil {
		t.Fatal(err)
	}
	oe := ols.RelativeError(onePred.PredictDataset(test), test.F)
	if oe < he {
		t.Fatalf("rank-1 refit error %g beats %g of the 99.9%%-energy model; truncation has no cost?", oe, he)
	}
}

func TestReducedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds := syntheticDataset(rng, 10, 4, 200, []int{1}, 0.01)
	if _, err := PlaceSensorsReduced(ds, Config{Lambda: -1}, basis.Config{}); err == nil {
		t.Fatal("negative lambda accepted")
	}
	if _, err := PlaceSensorsReduced(ds, Config{Lambda: 2}, basis.Config{Energy: 2}); err == nil {
		t.Fatal("bad energy accepted")
	}
	if _, _, err := BuildReducedPredictor(ds, nil, basis.Config{}); err == nil {
		t.Fatal("empty selection accepted")
	}
	if _, _, err := BuildReducedPredictor(ds, []int{3, 3}, basis.Config{}); err == nil {
		t.Fatal("duplicate selection accepted")
	}
	if _, _, err := BuildReducedPredictor(ds, []int{50}, basis.Config{}); err == nil {
		t.Fatal("out-of-range selection accepted")
	}
}
