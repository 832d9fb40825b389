package core

import (
	"math/rand"
	"testing"

	"voltsense/internal/basis"
	"voltsense/internal/mat"
	"voltsense/internal/ols"
	"voltsense/internal/place"
)

// lowRankDataset builds a dataset whose candidates and targets share a
// latent low-rank driver, so criterion placements have real structure to
// find.
func lowRankDataset(seed int64, m, k, n, rank int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	randM := func(r, c int) *mat.Matrix {
		out := mat.Zeros(r, c)
		d := out.Data()
		for i := range d {
			d[i] = 0.9 + 0.02*rng.NormFloat64()
		}
		return out
	}
	h := mat.Zeros(rank, n)
	hd := h.Data()
	for i := range hd {
		hd[i] = rng.NormFloat64()
	}
	a := mat.Zeros(m, rank)
	ad := a.Data()
	for i := range ad {
		ad[i] = rng.NormFloat64() / float64(rank)
	}
	b := mat.Zeros(k, rank)
	bd := b.Data()
	for i := range bd {
		bd[i] = rng.NormFloat64() / float64(rank)
	}
	x := mat.Mul(a, h)
	f := mat.Mul(b, h)
	// Shift into a plausible voltage range around 0.9 V; the candidates get
	// a whiff of measurement noise so dense refits of more than rank sensors
	// stay full-rank (as any real trace set would be).
	off := randM(1, 1).At(0, 0)
	xd := x.Data()
	for i := range xd {
		xd[i] = off + 0.05*xd[i] + 1e-5*rng.NormFloat64()
	}
	fd := f.Data()
	for i := range fd {
		fd[i] = off + 0.05*fd[i]
	}
	return &Dataset{X: x, F: f}
}

func TestPlaceWithEveryCriterionRefitsCleanly(t *testing.T) {
	ds := lowRankDataset(21, 16, 4, 150, 4)
	cc := CriterionConfig{Basis: basis.Config{Rank: 4}}
	const q = 6
	for _, name := range place.Names() {
		crit, err := place.ParseCriterion(name)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := PlaceWith(ds, crit, q, cc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cp.Criterion != name || len(cp.Selected) != q {
			t.Fatalf("%s: placement %+v malformed", name, cp)
		}
		// Every selection must feed both refit paths.
		if _, err := BuildPredictor(ds, cp.Selected); err != nil {
			t.Errorf("%s: dense refit: %v", name, err)
		}
		pred, err := BuildGLSPredictor(cp.Problem, cp.Selected, nil)
		if err != nil {
			t.Errorf("%s: GLS refit: %v", name, err)
			continue
		}
		rel := ols.RelativeError(pred.PredictDataset(ds), ds.F)
		if rel > 0.02 {
			t.Errorf("%s: GLS training error %.4f on noiseless low-rank data", name, rel)
		}
	}
}

func TestPlaceMixedSensorsEndToEnd(t *testing.T) {
	ds := lowRankDataset(22, 18, 4, 150, 4)
	cc := CriterionConfig{Basis: basis.Config{Rank: 4}}
	mp, p, err := PlaceMixedSensors(ds, place.DefaultClassSpec, 14, cc)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Cost > 14 {
		t.Errorf("cost %g exceeds budget", mp.Cost)
	}
	if len(mp.Selected) < p.Rank() {
		t.Fatalf("budget 14 bought only %d sensors for rank %d", len(mp.Selected), p.Rank())
	}
	pred, err := BuildGLSPredictor(p, mp.Selected, mp.NoiseVariances(place.DefaultClassSpec))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pred.Selected); got != len(mp.Selected) {
		t.Errorf("predictor kept %d sensors, want %d", got, len(mp.Selected))
	}
	rel := ols.RelativeError(pred.PredictDataset(ds), ds.F)
	if rel > 0.02 {
		t.Errorf("mixed GLS training error %.4f", rel)
	}
}

func TestNewPlacementProblemDefaults(t *testing.T) {
	ds := lowRankDataset(23, 10, 3, 80, 3)
	p, err := NewPlacementProblem(ds, CriterionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Vth == 0 || p.Threshold != DefaultThreshold {
		t.Errorf("defaults not applied: Vth %v Threshold %v", p.Vth, p.Threshold)
	}
	if _, err := NewPlacementProblem(&Dataset{}, CriterionConfig{}); err == nil {
		t.Error("invalid dataset accepted")
	}
}
