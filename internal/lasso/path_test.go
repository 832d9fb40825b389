package lasso

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"voltsense/internal/mat"
)

// pathProblem builds a random instance whose optimum is meaningfully sparse:
// G is generated from a handful of true candidate rows plus noise, so small
// budgets zero most groups and the screening layer has something to drop.
func pathProblem(seed int64, k, m, n int) (*mat.Matrix, *mat.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	z := randn(rng, m, n)
	g := mat.Zeros(k, n)
	for i := 0; i < k; i++ {
		src := rng.Intn(m)
		w := 1 + rng.Float64()
		for j := 0; j < n; j++ {
			g.Set(i, j, w*z.At(src, j)+0.1*rng.NormFloat64())
		}
	}
	return z, g
}

// selections thresholds group norms the way core.PlaceSensors does: active
// means above a small fraction of the largest group norm.
func selections(norms []float64) []bool {
	max := 0.0
	for _, v := range norms {
		if v > max {
			max = v
		}
	}
	sel := make([]bool, len(norms))
	for i, v := range norms {
		sel[i] = v > 1e-3*max && v > 0
	}
	return sel
}

func sameSelections(a, b []float64) bool {
	sa, sb := selections(a), selections(b)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// tightOpt drives both the cold reference and the path solver close enough to
// the shared optimum that 1e-9 agreement is meaningful.
var tightOpt = Options{MaxIter: 20000, Tol: 1e-11}

// TestSolvePathMatchesColdConstrained drives one path solver down a
// descending budget grid: every warm-started, screened point must match a
// fresh solver's cold solve at the same budget.
func TestSolvePathMatchesColdConstrained(t *testing.T) {
	z, g := pathProblem(11, 6, 40, 240)
	ps := NewPathSolver(z, g, tightOpt)
	screened := 0
	for _, l := range []float64{8, 6, 5, 4, 3, 2} {
		res, stats, err := ps.SolveConstrained(l)
		if err != nil {
			t.Fatalf("path solve λ=%g: %v", l, err)
		}
		cold, err := solveConstrained(z, g, l, tightOpt)
		if err != nil {
			t.Fatalf("cold solve λ=%g: %v", l, err)
		}
		if d := mat.MaxAbsDiff(res.Beta, cold.Beta); d > 1e-9 {
			t.Errorf("λ=%g: path vs cold max |Δβ| = %g", l, d)
		}
		if !sameSelections(res.GroupNorms, cold.GroupNorms) {
			t.Errorf("λ=%g: path and cold solves select different groups", l)
		}
		screened += stats.Screened
	}
	if screened == 0 {
		t.Error("screening never dropped a group across the whole path; test exercises nothing")
	}
}

// TestSolvePenalizedPathMatchesCold drives one path solver down a descending
// μ grid: every gap-safe screened point must match a cold SolvePenalized.
func TestSolvePenalizedPathMatchesCold(t *testing.T) {
	z, g := pathProblem(12, 6, 40, 240)
	ps := NewPathSolver(z, g, tightOpt)
	muMax := ps.MuMax()
	screened := 0
	for _, mu := range []float64{0.7 * muMax, 0.5 * muMax, 0.3 * muMax, 0.15 * muMax, 0.05 * muMax} {
		res, stats, err := ps.SolvePenalized(mu)
		if err != nil {
			t.Fatalf("path solve μ=%g: %v", mu, err)
		}
		cold, err := SolvePenalized(z, g, mu, tightOpt)
		if err != nil {
			t.Fatalf("cold solve μ=%g: %v", mu, err)
		}
		if d := mat.MaxAbsDiff(res.Beta, cold.Beta); d > 1e-9 {
			t.Errorf("μ=%g: path vs cold max |Δβ| = %g", mu, d)
		}
		if !sameSelections(res.GroupNorms, cold.GroupNorms) {
			t.Errorf("μ=%g: path and cold solves select different groups", mu)
		}
		screened += stats.Screened
	}
	if screened == 0 {
		t.Error("gap-safe screening never fired; test exercises nothing")
	}
}

// TestPathSolverPenalizedBisectionOrder drives SolvePenalized in the
// non-monotone order a bisection produces; every point must still match an
// independent cold solve (warm starts and screening may never change the
// answer, whatever the visiting order).
func TestPathSolverPenalizedBisectionOrder(t *testing.T) {
	z, g := pathProblem(13, 5, 32, 200)
	ps := NewPathSolver(z, g, tightOpt)
	lo, hi := 0.0, ps.MuMax()
	for step := 0; step < 12; step++ {
		mu := 0.5 * (lo + hi)
		res, _, err := ps.SolvePenalized(mu)
		if err != nil {
			t.Fatalf("step %d μ=%g: %v", step, mu, err)
		}
		cold, err := SolvePenalized(z, g, mu, tightOpt)
		if err != nil {
			t.Fatalf("cold μ=%g: %v", mu, err)
		}
		if d := mat.MaxAbsDiff(res.Beta, cold.Beta); d > 1e-9 {
			t.Fatalf("step %d μ=%g: warm bisection vs cold max |Δβ| = %g", step, mu, d)
		}
		nz := 0
		for _, n := range res.GroupNorms {
			if n > 0 {
				nz++
			}
		}
		if nz > 6 {
			hi = mu
		} else {
			lo = mu
		}
	}
}

func TestPathSolverEdgeCases(t *testing.T) {
	z, g := pathProblem(14, 4, 20, 120)
	ps := NewPathSolver(z, g, tightOpt)

	res, stats, err := ps.SolvePenalized(2 * ps.MuMax())
	if err != nil {
		t.Fatalf("μ>μmax: %v", err)
	}
	if !betaIsZero(res.Beta) || stats.Screened != 20 {
		t.Fatalf("μ>μmax must zero everything (screened=%d)", stats.Screened)
	}

	res, _, err = ps.SolveConstrained(0)
	if err != nil {
		t.Fatalf("λ=0: %v", err)
	}
	if !betaIsZero(res.Beta) {
		t.Fatal("λ=0 must produce the zero solution")
	}
	if want := 0.5 * sumSquares(g); math.Abs(res.Objective-want) > 1e-9*want {
		t.Fatalf("zero-solution objective = %g, want %g", res.Objective, want)
	}

	// After the two trivial points the solver restarts cleanly: a larger
	// budget matches a fresh solver's cold solve.
	res, _, err = ps.SolveConstrained(4)
	if err != nil {
		t.Fatalf("λ=4 after λ=0: %v", err)
	}
	cold, err := solveConstrained(z, g, 4, tightOpt)
	if err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(res.Beta, cold.Beta); d > 1e-9 {
		t.Fatalf("λ=4 after λ=0 vs cold max |Δβ| = %g", d)
	}
}

func sumSquares(m *mat.Matrix) float64 {
	s := 0.0
	for _, v := range m.Data() {
		s += v * v
	}
	return s
}

// TestSolvePathInputOrderInvariance feeds two path solvers the same budgets,
// one descending and one shuffled: warm starts and screening follow the
// visiting order, but every budget must reach the same optimum and select
// the same groups whichever order it was visited in.
func TestSolvePathInputOrderInvariance(t *testing.T) {
	z, g := pathProblem(15, 5, 30, 180)
	sorted := []float64{8, 6, 5, 4, 3, 2}
	shuffled := []float64{4, 2, 8, 5, 3, 6}
	a := NewPathSolver(z, g, tightOpt)
	byLambda := map[float64]*Result{}
	for _, l := range sorted {
		res, _, err := a.SolveConstrained(l)
		if err != nil {
			t.Fatalf("sorted λ=%g: %v", l, err)
		}
		byLambda[l] = res
	}
	b := NewPathSolver(z, g, tightOpt)
	for _, l := range shuffled {
		res, _, err := b.SolveConstrained(l)
		if err != nil {
			t.Fatalf("shuffled λ=%g: %v", l, err)
		}
		ref := byLambda[l]
		if d := mat.MaxAbsDiff(res.Beta, ref.Beta); d > 1e-9 {
			t.Errorf("λ=%g: shuffled path differs from sorted by %g", l, d)
		}
		if !sameSelections(res.GroupNorms, ref.GroupNorms) {
			t.Errorf("λ=%g: shuffled and sorted paths select different groups", l)
		}
	}
}

// TestPathSolverSelectCount pins the count bisection. On a random sparse
// instance every target count lands exactly: the returned solution selects
// exactly q groups and a cold solve at the returned μ agrees. On an
// orthogonal instance where three groups enter at the same μ the count
// jumps from 0 to 3, so q = 1 and q = 2 keep the q largest group norms of
// the returned solution, ascending. Counts outside 1…M are errors.
func TestPathSolverSelectCount(t *testing.T) {
	z, g := pathProblem(16, 5, 30, 180)
	ps := NewPathSolver(z, g, tightOpt)
	for q := 1; q <= 5; q++ {
		sel, res, mu, err := ps.SelectCount(q, 1e-3)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if got := res.Select(1e-3); len(sel) != q || !slices.Equal(sel, got) {
			t.Fatalf("q=%d: selected %v from a solution selecting %v", q, sel, got)
		}
		cold, err := SolvePenalized(z, g, mu, tightOpt)
		if err != nil {
			t.Fatal(err)
		}
		if got := cold.Select(1e-3); !slices.Equal(sel, got) {
			t.Fatalf("q=%d: selected %v, cold solve at μ=%g selects %v", q, sel, mu, got)
		}
	}
	for _, q := range []int{0, 31} {
		if _, _, _, err := ps.SelectCount(q, 1e-3); err == nil {
			t.Errorf("q=%d of 30 groups accepted", q)
		}
	}

	// Orthogonal ±1 rows h1, h2, h3 of a 4×4 Hadamard matrix, scaled by s;
	// g = Σ h_m/s_m gives every group the correlation 4, so all three enter
	// at μ = 4 with norms (4−μ)/(4·s_m²): candidate 1 largest, then 0.
	// Candidate 3 (the constant row) is uncorrelated with g.
	h := [][]float64{{1, 1, -1, -1}, {1, -1, 1, -1}, {1, -1, -1, 1}, {1, 1, 1, 1}}
	scale := []float64{2, 1, 4, 1}
	zo, gf := mat.Zeros(4, 4), mat.Zeros(1, 4)
	for m := range h {
		for j, v := range h[m] {
			zo.Set(m, j, scale[m]*v)
			if m < 3 {
				gf.Set(0, j, gf.At(0, j)+v/scale[m])
			}
		}
	}
	for q, want := range map[int][]int{1: {1}, 2: {0, 1}} {
		sel, res, _, err := NewPathSolver(zo, gf, tightOpt).SelectCount(q, 0)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if n := len(res.Select(0)); n != 3 {
			t.Fatalf("q=%d: solution selects %d groups, want the 3 tied ones", q, n)
		}
		if !slices.Equal(sel, want) {
			t.Errorf("q=%d: selected %v, want the %d largest group norms %v (norms %v)", q, sel, q, want, res.GroupNorms)
		}
	}
	if _, _, _, err := NewPathSolver(zo, gf, tightOpt).SelectCount(4, 0); err == nil {
		t.Error("reached 4 groups although candidate 3 is uncorrelated with the targets")
	}
}
