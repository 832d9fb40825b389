package core

import (
	"math/rand"
	"slices"
	"testing"

	"voltsense/internal/basis"
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

func TestReducedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds := syntheticDataset(rng, 10, 4, 200, []int{1}, 0.01)
	if _, err := PlaceSensorsReduced(ds, Config{Lambda: -1}, basis.Config{}); err == nil {
		t.Fatal("negative lambda accepted")
	}
	if _, err := PlaceSensorsReduced(ds, Config{Lambda: 2}, basis.Config{Energy: 2}); err == nil {
		t.Fatal("bad energy accepted")
	}
}
