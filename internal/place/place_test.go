package place

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"voltsense/internal/basis"
	"voltsense/internal/mat"
)

func randMat(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.Zeros(r, c)
	d := m.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return m
}

// testProblem builds a synthetic low-rank placement problem: M candidate
// traces and K target traces driven by the same rank-dimensional latent
// process, so a rank-r basis of the candidates genuinely determines the
// targets.
func testProblem(t *testing.T, seed int64, m, k, n, rank int) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := randMat(rng, rank, n)
	x := mat.Mul(randMat(rng, m, rank), h)
	f := mat.Mul(randMat(rng, k, rank), h)
	p, err := NewProblem(x, f, basis.Config{Rank: rank}, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rank() != rank {
		t.Fatalf("candidate basis rank %d, want %d", p.Rank(), rank)
	}
	return p
}

func TestParseCriterionRoundTripsNames(t *testing.T) {
	names := Names()
	want := []string{"dopt", "eagleeye", "eopt", "framesense", "grouplasso", "worstcase"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("registered criteria %v, want %v", names, want)
	}
	for _, name := range names {
		c, err := ParseCriterion(name)
		if err != nil {
			t.Fatalf("ParseCriterion(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("ParseCriterion(%q).Name() = %q", name, c.Name())
		}
	}
	if _, err := ParseCriterion("  DOpt "); err != nil {
		t.Errorf("case/space-insensitive parse failed: %v", err)
	}
	if _, err := ParseCriterion("bogus"); err == nil {
		t.Error("unknown criterion accepted")
	}
}

func TestEveryCriterionReturnsAscendingUniqueSelection(t *testing.T) {
	p := testProblem(t, 1, 14, 3, 160, 4)
	const q = 5
	for _, name := range Names() {
		c, err := ParseCriterion(name)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := c.Select(p, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sel) != q {
			t.Fatalf("%s: got %d sensors, want %d", name, len(sel), q)
		}
		for i, s := range sel {
			if s < 0 || s >= p.Candidates() {
				t.Errorf("%s: index %d out of range", name, s)
			}
			if i > 0 && sel[i-1] >= s {
				t.Errorf("%s: selection %v not strictly ascending", name, sel)
			}
		}
		// Determinism: a second run on the same problem must agree.
		again, err := c.Select(p, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sel {
			if sel[i] != again[i] {
				t.Errorf("%s: selection not deterministic: %v vs %v", name, sel, again)
			}
		}
	}
}

func TestCriterionBudgetValidation(t *testing.T) {
	p := testProblem(t, 2, 8, 2, 60, 3)
	for _, q := range []int{0, -1, 9} {
		if _, err := (DOpt{}).Select(p, q); err == nil {
			t.Errorf("budget %d accepted", q)
		}
	}
}

// TestDOptGreedyMatchesBruteForce pins the Sherman–Morrison incremental
// arithmetic against a naive greedy that recomputes the exact log-det
// objective for every candidate at every step.
func TestDOptGreedyMatchesBruteForce(t *testing.T) {
	p := testProblem(t, 3, 12, 3, 90, 4)
	const q = 6
	fast, err := (DOpt{}).Select(p, q)
	if err != nil {
		t.Fatal(err)
	}
	var naive []int
	chosen := make([]bool, p.Candidates())
	for len(naive) < q {
		best, bestLD := -1, math.Inf(-1)
		for i := 0; i < p.Candidates(); i++ {
			if chosen[i] {
				continue
			}
			ld, err := LogDetInfo(p.Psi, append(naive, i))
			if err != nil {
				t.Fatal(err)
			}
			// Same lowest-index-wins tie margin as the production greedy:
			// first-step gains are exactly tied on standardized data.
			if best < 0 || ld > bestLD+1e-9*math.Abs(bestLD) {
				best, bestLD = i, ld
			}
		}
		chosen[best] = true
		naive = append(naive, best)
	}
	naive = ascending(naive)
	for i := range fast {
		if fast[i] != naive[i] {
			t.Fatalf("greedy selections diverge: fast %v vs brute force %v", fast, naive)
		}
	}
	ldFast, err := LogDetInfo(p.Psi, fast)
	if err != nil {
		t.Fatal(err)
	}
	ldNaive, err := LogDetInfo(p.Psi, naive)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ldFast-ldNaive) / math.Abs(ldNaive); d > 1e-9 {
		t.Errorf("objectives diverge by relative %g", d)
	}
}

// pivotedQR is the SSPOR greedy of PySensors 2.0, kept as the oracle for
// DOpt below the basis rank: a column-pivoted Gram–Schmidt sweep over Ψᵀ
// that takes, at each step, the candidate whose basis row has the largest
// norm after orthogonalizing against the rows already chosen. Ties within a
// relative 1e-9 go to the lowest index, DOpt's rule: on a basis that covers
// every candidate's energy all row norms are equal, and without the shared
// rule roundoff would pick the first pivot. q must not exceed the rank.
func pivotedQR(psi *mat.Matrix, q int) []int {
	m := psi.Rows()
	res := psi.Clone()
	norm2 := make([]float64, m)
	for i := range norm2 {
		norm2[i] = mat.Dot(res.Row(i), res.Row(i))
	}
	chosen := make([]bool, m)
	var sel []int
	for len(sel) < q {
		best, bestN := -1, 0.0
		for i := 0; i < m; i++ {
			if !chosen[i] && (best < 0 || norm2[i] > bestN*(1+1e-9)) {
				best, bestN = i, norm2[i]
			}
		}
		chosen[best] = true
		sel = append(sel, best)
		// Deflate: remove the chosen direction from every remaining row.
		pv := res.Row(best)
		inv := 1 / math.Sqrt(bestN)
		for j := range pv {
			pv[j] *= inv
		}
		for i := 0; i < m; i++ {
			if chosen[i] {
				continue
			}
			row := res.Row(i)
			d := mat.Dot(row, pv)
			for j := range row {
				row[j] -= d * pv[j]
			}
			norm2[i] = mat.Dot(row, row)
		}
	}
	return ascending(sel)
}

// TestDOptMatchesPivotedQR: up to the basis rank the D-optimal gain is
// ‖ψ⊥‖²/ε plus a term of order ‖ψ‖²/σ²_min, so the greedy must pick exactly
// the pivoted-QR sensors for every q ≤ r — on random problems whose latent
// dimension equals the rank (equal row norms, a tied first step) or exceeds
// it, and on the fixtures the other tests use.
func TestDOptMatchesPivotedQR(t *testing.T) {
	var probs []*Problem
	rng := rand.New(rand.NewSource(70))
	for trial := 0; trial < 24; trial++ {
		r := 2 + rng.Intn(7)
		latent := r + trial%2*(1+rng.Intn(4))
		m := r + 4 + rng.Intn(30)
		n := 3*m + 20
		h := randMat(rng, latent, n)
		x := mat.Mul(randMat(rng, m, latent), h)
		f := mat.Mul(randMat(rng, 3, latent), h)
		p, err := NewProblem(x, f, basis.Config{Rank: r}, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		probs = append(probs, p)
	}
	for _, fx := range [][5]int{
		{1, 14, 3, 160, 4}, {2, 8, 2, 60, 3}, {3, 12, 3, 90, 4}, {5, 18, 3, 140, 4},
		{7, 15, 4, 130, 4}, {10, 20, 3, 150, 4}, {11, 12, 2, 90, 3},
	} {
		probs = append(probs, testProblem(t, int64(fx[0]), fx[1], fx[2], fx[3], fx[4]))
	}
	probs = append(probs, rotationProblem(t))
	for pi, p := range probs {
		for q := 1; q <= p.Rank(); q++ {
			got, err := (DOpt{}).Select(p, q)
			if err != nil {
				t.Fatal(err)
			}
			want := pivotedQR(p.Psi, q)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("problem %d (M=%d, r=%d), q=%d: dopt %v, pivoted QR %v",
						pi, p.Candidates(), p.Rank(), q, got, want)
				}
			}
		}
	}
}

// rotationProblem is a rank-5 basis of 16 candidates driven by 9 latent
// factors. The latent dimension deliberately exceeds the fitted rank — a
// fully-covering basis would equalize every row norm (ties), making the
// first pick depend on the tie rule rather than on the geometry.
func rotationProblem(t *testing.T) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(40))
	h := randMat(rng, 9, 120)
	x := mat.Mul(randMat(rng, 16, 9), h)
	f := mat.Mul(randMat(rng, 3, 9), h)
	p, err := NewProblem(x, f, basis.Config{Rank: 5}, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDOptRotationInvariant: the D-optimal gain depends only on inner
// products between basis rows, so any orthogonal rotation of the basis must
// leave the selection unchanged, below the rank and past it.
func TestDOptRotationInvariant(t *testing.T) {
	p := rotationProblem(t)
	rng := rand.New(rand.NewSource(41))
	for _, q := range []int{5, 9} {
		base, err := (DOpt{}).Select(p, q)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			// An orthogonal r×r matrix: eigenvectors of a random symmetric matrix.
			a := randMat(rng, p.Rank(), p.Rank())
			sym := mat.Mul(a, a.T())
			e, err := mat.FactorSymEigen(sym)
			if err != nil {
				t.Fatal(err)
			}
			rotated := *p
			rotated.Psi = mat.Mul(p.Psi, e.Vectors)
			got, err := (DOpt{}).Select(&rotated, q)
			if err != nil {
				t.Fatal(err)
			}
			for i := range base {
				if base[i] != got[i] {
					t.Fatalf("q=%d trial %d: rotation changed selection: %v vs %v", q, trial, base, got)
				}
			}
		}
	}
}

func TestFrameSenseBeatsRandomSubsets(t *testing.T) {
	p := testProblem(t, 5, 18, 3, 140, 4)
	const q = 6
	sel, err := (FrameSense{}).Select(p, q)
	if err != nil {
		t.Fatal(err)
	}
	fp := FramePotential(p.Psi, sel)
	rng := rand.New(rand.NewSource(51))
	var worse int
	const trials = 40
	for i := 0; i < trials; i++ {
		if FramePotential(p.Psi, rng.Perm(p.Candidates())[:q]) >= fp {
			worse++
		}
	}
	if worse < trials*3/4 {
		t.Errorf("frame potential %g beaten by %d/%d random subsets", fp, trials-worse, trials)
	}
}

func TestEOptAndWorstCaseBeatRandomOnAverage(t *testing.T) {
	p := testProblem(t, 6, 18, 3, 140, 4)
	const q = 6
	eSel, err := (EOpt{}).Select(p, q)
	if err != nil {
		t.Fatal(err)
	}
	wSel, err := (WorstCase{}).Select(p, q)
	if err != nil {
		t.Fatal(err)
	}
	eObj, err := MinEigenInfo(p.Psi, eSel)
	if err != nil {
		t.Fatal(err)
	}
	wObj := MaxPosteriorVariance(p.Psi, p.TargetLoad, wSel)
	rng := rand.New(rand.NewSource(61))
	var eRand, wRand float64
	const trials = 40
	for i := 0; i < trials; i++ {
		sub := rng.Perm(p.Candidates())[:q]
		ev, err := MinEigenInfo(p.Psi, sub)
		if err != nil {
			t.Fatal(err)
		}
		eRand += ev
		wRand += MaxPosteriorVariance(p.Psi, p.TargetLoad, sub)
	}
	eRand /= trials
	wRand /= trials
	if eObj < eRand {
		t.Errorf("E-opt λ_min %g below random average %g", eObj, eRand)
	}
	if wObj > wRand {
		t.Errorf("worst-case posterior variance %g above random average %g", wObj, wRand)
	}
}

// TestGLSModelEqualVariancesMatchesUnweighted: when every sensor carries the
// same noise variance the GLS weighting cancels, so the refit must agree
// with the unweighted basis refit to machine precision.
func TestGLSModelEqualVariancesMatchesUnweighted(t *testing.T) {
	p := testProblem(t, 7, 15, 4, 130, 4)
	sel, err := (DOpt{}).Select(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := GLSModel(p, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1, 0.21, 7.5} {
		vars := make([]float64, len(sel))
		for i := range vars {
			vars[i] = v
		}
		wm, err := GLSModel(p, sel, vars)
		if err != nil {
			t.Fatalf("variance %v: %v", v, err)
		}
		if !mat.Equalish(plain.Alpha, wm.Alpha, 1e-9) {
			t.Errorf("variance %v: alpha diverges by %g", v, mat.MaxAbsDiff(plain.Alpha, wm.Alpha))
		}
		for i := range plain.C {
			if math.Abs(plain.C[i]-wm.C[i]) > 1e-9 {
				t.Errorf("variance %v: intercept %d: %g vs %g", v, i, plain.C[i], wm.C[i])
			}
		}
	}
}

// TestGLSModelPredictsLowRankTargets: on noiseless low-rank data the basis
// refit must reproduce the targets nearly exactly from raw readings.
func TestGLSModelPredictsLowRankTargets(t *testing.T) {
	p := testProblem(t, 8, 15, 4, 130, 4)
	sel, err := (DOpt{}).Select(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := GLSModel(p, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	xs := p.X.SelectRows(sel)
	var worst float64
	for j := 0; j < p.X.Cols(); j++ {
		got := m.Predict(xs.Col(j))
		for i, v := range got {
			if d := math.Abs(v - p.F.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-6 {
		t.Errorf("max reconstruction error %g on noiseless low-rank data", worst)
	}
}

func TestGLSModelValidation(t *testing.T) {
	p := testProblem(t, 9, 10, 2, 80, 4)
	if _, err := GLSModel(p, nil, nil); err == nil {
		t.Error("empty selection accepted")
	}
	if _, err := GLSModel(p, []int{0, 1, 2}, nil); err == nil {
		t.Error("selection below basis rank accepted")
	}
	if _, err := GLSModel(p, []int{0, 2, 1, 3}, nil); err == nil {
		t.Error("non-ascending selection accepted")
	}
	if _, err := GLSModel(p, []int{0, 1, 2, 11}, nil); err == nil {
		t.Error("out-of-range selection accepted")
	}
	if _, err := GLSModel(p, []int{0, 1, 2, 3}, []float64{1, 1}); err == nil {
		t.Error("mismatched variance vector accepted")
	}
}

func TestPlaceMixedRespectsBudgetAndClasses(t *testing.T) {
	p := testProblem(t, 10, 20, 3, 150, 4)
	spec := DefaultClassSpec
	mp, err := PlaceMixed(p, spec, 12)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Cost > 12 {
		t.Errorf("cost %g exceeds budget", mp.Cost)
	}
	if len(mp.Selected) != len(mp.Classes) {
		t.Fatalf("selected/classes misaligned: %d vs %d", len(mp.Selected), len(mp.Classes))
	}
	for i, s := range mp.Selected {
		if i > 0 && mp.Selected[i-1] >= s {
			t.Fatalf("selection %v not strictly ascending", mp.Selected)
		}
	}
	vars := mp.NoiseVariances(spec)
	for i, c := range mp.Classes {
		want := spec.LowCostVar
		if c == ClassReference {
			want = spec.RefVar
		}
		if vars[i] != want {
			t.Errorf("variance %d: %g, want %g", i, vars[i], want)
		}
	}
	// A larger budget must buy at least as many sensors.
	mpBig, err := PlaceMixed(p, spec, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(mpBig.Selected) < len(mp.Selected) {
		t.Errorf("budget 40 bought %d sensors, budget 12 bought %d", len(mpBig.Selected), len(mp.Selected))
	}
	// The mixed refit must go through once enough sensors cover the rank.
	if len(mpBig.Selected) >= p.Rank() {
		if _, err := GLSModel(p, mpBig.Selected, mpBig.NoiseVariances(spec)); err != nil {
			t.Errorf("mixed GLS refit: %v", err)
		}
	}
}

func TestPlaceMixedEqualCostsPrefersReference(t *testing.T) {
	p := testProblem(t, 11, 12, 2, 90, 3)
	spec := ClassSpec{RefVar: 0.01, LowCostVar: 0.1, RefCost: 1, LowCostCost: 1}
	mp, err := PlaceMixed(p, spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, low := mp.CountByClass()
	if low != 0 {
		t.Errorf("equal costs picked %d low-cost sensors (%d reference); reference strictly dominates", low, ref)
	}
}

func TestPlaceMixedValidation(t *testing.T) {
	p := testProblem(t, 12, 8, 2, 60, 3)
	if _, err := PlaceMixed(p, DefaultClassSpec, 0.5); err == nil {
		t.Error("unaffordable budget accepted")
	}
	bad := DefaultClassSpec
	bad.RefVar = -1
	if _, err := PlaceMixed(p, bad, 10); err == nil {
		t.Error("negative variance accepted")
	}
}

func TestNewProblemValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randMat(rng, 4, 30)
	f := randMat(rng, 2, 20)
	if _, err := NewProblem(x, f, basis.Config{Rank: 2}, 0.85); err == nil {
		t.Error("sample-count mismatch accepted")
	}
	if _, err := NewProblem(nil, f, basis.Config{Rank: 2}, 0.85); err == nil {
		t.Error("nil candidates accepted")
	}
}
