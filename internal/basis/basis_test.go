package basis

import (
	"math"
	"math/rand"
	"testing"

	"voltsense/internal/mat"
)

func randMatrix(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.Zeros(r, c)
	for i := 0; i < r; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	return m
}

// lowRank builds a K×N matrix of exact rank r.
func lowRank(rng *rand.Rand, k, n, r int) *mat.Matrix {
	return mat.Mul(randMatrix(rng, k, r), randMatrix(rng, r, n))
}

func TestFitRankPinsRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randMatrix(rng, 12, 40)
	b, err := Fit(g, Config{Rank: 5})
	if err != nil {
		t.Fatal(err)
	}
	if b.Rank() != 5 || b.Nodes() != 12 {
		t.Fatalf("rank %d nodes %d, want 5 and 12", b.Rank(), b.Nodes())
	}
	// Requesting more than the numerical rank clamps.
	b, err = Fit(lowRank(rng, 12, 40, 3), Config{Rank: 10})
	if err != nil {
		t.Fatal(err)
	}
	if b.Rank() != 3 {
		t.Fatalf("rank %d on rank-3 data, want clamp to 3", b.Rank())
	}
}

func TestFitEnergyKnob(t *testing.T) {
	// Spectrum engineered by scaling orthogonal-ish rows: energy fractions
	// must be monotone in rank and the chosen rank minimal.
	rng := rand.New(rand.NewSource(2))
	g := randMatrix(rng, 10, 50)
	b, err := Fit(g, Config{Energy: 0.90})
	if err != nil {
		t.Fatal(err)
	}
	s := b.SingularValues()
	r := b.Rank()
	if got := EnergyForRank(s, r); got < 0.90 {
		t.Fatalf("rank %d captures %g < 0.90", r, got)
	}
	if r > 1 {
		if got := EnergyForRank(s, r-1); got >= 0.90 {
			t.Fatalf("rank %d not minimal: rank %d already captures %g", r, r-1, got)
		}
	}
	if math.Abs(b.EnergyCaptured()-EnergyForRank(s, r)) > 1e-12 {
		t.Fatalf("EnergyCaptured %g != EnergyForRank %g", b.EnergyCaptured(), EnergyForRank(s, r))
	}
}

// lift maps an r×N coefficient matrix back to the K×N full space via U·w:
// the round-trip oracle of Project.
func lift(b *Basis, w *mat.Matrix) *mat.Matrix { return mat.Mul(b.u, w) }

func TestProjectLiftRoundTrip(t *testing.T) {
	// Data of exact rank 4 with a rank-4 basis: lift(project(g)) == g.
	rng := rand.New(rand.NewSource(3))
	g := lowRank(rng, 15, 30, 4)
	b, err := Fit(g, Config{Rank: 4})
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.Project(g)
	if err != nil {
		t.Fatal(err)
	}
	if w.Rows() != 4 || w.Cols() != 30 {
		t.Fatalf("projected shape %dx%d, want 4x30", w.Rows(), w.Cols())
	}
	back := lift(b, w)
	scale := g.FrobeniusNorm()
	if d := mat.FrobeniusDistance(back, g); d > 1e-8*scale {
		t.Fatalf("round-trip error %g (scale %g)", d, scale)
	}
}

func TestFullRankLossless(t *testing.T) {
	// r = K on full-rank training data: the basis is a square orthogonal
	// rotation, so projection loses nothing on arbitrary new data.
	rng := rand.New(rand.NewSource(5))
	g := randMatrix(rng, 8, 40)
	b, err := Fit(g, Config{Rank: 8})
	if err != nil {
		t.Fatal(err)
	}
	if b.EnergyCaptured() < 1-1e-12 {
		t.Fatalf("full-rank basis captures %g < 1", b.EnergyCaptured())
	}
	fresh := randMatrix(rng, 8, 7)
	w, err := b.Project(fresh)
	if err != nil {
		t.Fatal(err)
	}
	back := lift(b, w)
	if d := mat.FrobeniusDistance(back, fresh); d > 1e-8*fresh.FrobeniusNorm() {
		t.Fatalf("full-rank round trip error %g", d)
	}
}

func TestFitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randMatrix(rng, 4, 4)
	if _, err := Fit(mat.Zeros(0, 5), Config{}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Fit(g, Config{Energy: 1.5}); err == nil {
		t.Fatal("energy > 1 accepted")
	}
	if _, err := Fit(g, Config{Energy: -0.2}); err == nil {
		t.Fatal("negative energy accepted")
	}
	b, err := Fit(g, Config{Rank: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Project(mat.Zeros(5, 3)); err == nil {
		t.Fatal("shape-mismatched Project accepted")
	}
}

// TestFitTruncatedPathMatchesExact drives Fit over the subspace-iteration
// path (min dimension above the truncFitDim switch) and checks both the
// energy mode and the pinned-rank mode against a Fit on the exact spectrum
// of the same matrix.
func TestFitTruncatedPathMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := lowRank(rng, 150, 260, 30)
	exact, err := mat.ThinSVD(g)
	if err != nil {
		t.Fatal(err)
	}

	b, err := Fit(g, Config{Energy: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	wantRank := RankForEnergy(exact.S, 0.99)
	if b.Rank() != wantRank {
		t.Fatalf("truncated energy fit picked rank %d, exact spectrum says %d", b.Rank(), wantRank)
	}
	if b.EnergyCaptured() < 0.99 {
		t.Fatalf("energy captured %g below target", b.EnergyCaptured())
	}
	for i, v := range b.SingularValues()[:b.Rank()] {
		if rel := (v - exact.S[i]) / exact.S[i]; rel > 1e-6 || rel < -1e-6 {
			t.Fatalf("σ[%d]: truncated %g vs exact %g", i, v, exact.S[i])
		}
	}

	// Pinned-rank mode on a decaying spectrum (the POD regime, where the
	// cut has a real gap): the truncated basis must capture the energy the
	// exact leading-7 subspace does.
	gd := mat.Zeros(150, 260)
	sigma := 1.0
	for k := 0; k < 40; k++ {
		u, v := randMatrix(rng, 150, 1), randMatrix(rng, 1, 260)
		for i := 0; i < 150; i++ {
			row := gd.Row(i)
			for j := 0; j < 260; j++ {
				row[j] += sigma * u.At(i, 0) * v.At(0, j)
			}
		}
		sigma *= 0.75
	}
	exactD, err := mat.ThinSVD(gd)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := Fit(gd, Config{Rank: 7})
	if err != nil {
		t.Fatal(err)
	}
	if bp.Rank() != 7 {
		t.Fatalf("pinned truncated rank %d, want 7", bp.Rank())
	}
	w, err := bp.Project(gd)
	if err != nil {
		t.Fatal(err)
	}
	captured := w.FrobeniusNorm()
	var want float64
	for _, v := range exactD.S[:7] {
		want += v * v
	}
	want = math.Sqrt(want)
	if rel := (want - captured) / want; rel > 1e-9 {
		t.Fatalf("pinned truncated basis captures %g, exact rank-7 captures %g", captured, want)
	}
}
