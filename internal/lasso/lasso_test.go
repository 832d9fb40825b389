package lasso

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"voltsense/internal/mat"
)

func randn(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.Zeros(r, c)
	d := m.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return m
}

// solveConstrained is the cold constrained solve: a fresh path solver's
// first SolveConstrained, FISTA from zero with no screening.
func solveConstrained(z, g *mat.Matrix, lambda float64, opt Options) (*Result, error) {
	res, _, err := NewPathSolver(z, g, opt).SolveConstrained(lambda)
	return res, err
}

func sumSlice(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

func TestProjectL1InsideBallIsIdentity(t *testing.T) {
	v := []float64{0.1, 0.2, 0.3}
	got := ProjectL1(v, 1)
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("projection changed a point inside the ball: %v", got)
		}
	}
}

func TestProjectL1Known(t *testing.T) {
	// Project (2, 1) onto Σx ≤ 1, x ≥ 0: θ solves (2−θ)+(1−θ)=1 → θ=1,
	// giving (1, 0).
	got := ProjectL1([]float64{2, 1}, 1)
	if math.Abs(got[0]-1) > 1e-12 || math.Abs(got[1]) > 1e-12 {
		t.Fatalf("ProjectL1 = %v, want [1 0]", got)
	}
}

func TestProjectL1ZeroRadius(t *testing.T) {
	got := ProjectL1([]float64{3, 4}, 0)
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("zero-radius projection = %v", got)
	}
}

// Property: the projection lands in the ball, and satisfies the KKT
// structure: active coordinates share a common gap θ, inactive coordinates
// have v_i ≤ θ.
func TestProjectL1KKT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64() * 3
		}
		radius := rng.Float64() * 2
		p := ProjectL1(v, radius)
		if sumSlice(p) > radius+1e-9 {
			return false
		}
		if sumSlice(v) <= radius {
			return true // identity case already checked in-ball
		}
		// Common θ across active coordinates.
		theta := math.NaN()
		for i := range p {
			if p[i] > 1e-12 {
				gap := v[i] - p[i]
				if math.IsNaN(theta) {
					theta = gap
				} else if math.Abs(gap-theta) > 1e-9 {
					return false
				}
			}
		}
		if math.IsNaN(theta) {
			return true // everything clipped to zero
		}
		for i := range p {
			if p[i] <= 1e-12 && v[i] > theta+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: projection is the nearest point — no random in-ball point is
// closer to v than the projection.
func TestProjectL1IsNearest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64() * 3
		}
		radius := 0.1 + rng.Float64()
		p := ProjectL1(v, radius)
		dp := mat.Norm2(mat.SubVec(v, p))
		for trial := 0; trial < 20; trial++ {
			q := make([]float64, n)
			var s float64
			for i := range q {
				q[i] = rng.Float64()
				s += q[i]
			}
			if s > 0 {
				scale := radius * rng.Float64() / s
				for i := range q {
					q[i] *= scale
				}
			}
			if mat.Norm2(mat.SubVec(v, q)) < dp-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestProjectGroupBallBudgetAndDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	beta := randn(rng, 4, 6)
	orig := beta.Clone()
	newProjWS(beta.Cols()).projectGroupBall(beta, 1.5)
	norms := groupNorms(beta)
	if s := sumSlice(norms); s > 1.5+1e-9 {
		t.Fatalf("budget after projection = %v > 1.5", s)
	}
	// Surviving columns keep their direction.
	for j := 0; j < 6; j++ {
		if norms[j] < 1e-12 {
			continue
		}
		on := mat.Norm2(orig.Col(j))
		c := mat.Dot(orig.Col(j), beta.Col(j)) / (on * norms[j])
		if math.Abs(c-1) > 1e-9 {
			t.Fatalf("column %d direction changed: cos = %v", j, c)
		}
	}
}

func TestSolveConstrainedRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := randn(rng, 10, 200)
	g := randn(rng, 4, 200)
	for _, lambda := range []float64{0.1, 1, 5} {
		r, err := solveConstrained(z, g, lambda, Options{})
		if err != nil {
			t.Fatalf("lambda=%v: %v", lambda, err)
		}
		if b := BudgetOf(r); b > lambda*(1+1e-6) {
			t.Fatalf("lambda=%v: budget %v exceeds constraint", lambda, b)
		}
	}
}

func TestSolveConstrainedRecoversSupport(t *testing.T) {
	// Plant a model using features {1, 4, 7} and check the group norms
	// separate planted from unplanted columns.
	rng := rand.New(rand.NewSource(3))
	m, k, n := 12, 5, 400
	z := randn(rng, m, n)
	truth := mat.Zeros(k, m)
	for _, j := range []int{1, 4, 7} {
		for i := 0; i < k; i++ {
			truth.Set(i, j, 1+rng.Float64())
		}
	}
	g := mat.Mul(truth, z)
	r, err := solveConstrained(z, g, 4, Options{MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	minPlanted, maxOther := math.Inf(1), 0.0
	for j, nv := range r.GroupNorms {
		planted := j == 1 || j == 4 || j == 7
		if planted && nv < minPlanted {
			minPlanted = nv
		}
		if !planted && nv > maxOther {
			maxOther = nv
		}
	}
	if minPlanted < 10*maxOther {
		t.Fatalf("weak separation: planted min %v vs other max %v", minPlanted, maxOther)
	}
}

// TestPaperSection23Example reproduces the paper's worked example: two
// candidates with g1 = g2 = z1 and λ = 1. Group lasso must select only
// candidate 1, and its coefficients must be biased to ≈ 1/√2 each by the
// budget constraint (Eq. 16) — the very bias the OLS refit step exists to
// remove.
func TestPaperSection23Example(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 500
	z := mat.Zeros(2, n)
	g := mat.Zeros(2, n)
	for j := 0; j < n; j++ {
		z1 := rng.NormFloat64()
		z.Set(0, j, z1)
		z.Set(1, j, rng.NormFloat64()) // independent noise candidate
		g.Set(0, j, z1)
		g.Set(1, j, z1)
	}
	r, err := solveConstrained(z, g, 1, Options{MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	sel := r.Select(1e-3)
	if len(sel) != 1 || sel[0] != 0 {
		t.Fatalf("selected %v, want [0]", sel)
	}
	if n1 := r.GroupNorms[0]; n1 > 1+1e-6 {
		t.Fatalf("‖β₁‖ = %v violates Eq. 16", n1)
	}
	want := 1 / math.Sqrt2
	if b := r.Beta.At(0, 0); math.Abs(b-want) > 0.05 {
		t.Errorf("β₁,₁ = %v, want ≈ %v (biased by the constraint)", b, want)
	}
	if b := r.Beta.At(1, 0); math.Abs(b-want) > 0.05 {
		t.Errorf("β₂,₁ = %v, want ≈ %v", b, want)
	}
}

func TestSolvePenalizedZeroMuIsOLS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, k, n := 6, 3, 300
	z := randn(rng, m, n)
	truth := randn(rng, k, m)
	g := mat.Mul(truth, z)
	r, err := SolvePenalized(z, g, 0, Options{MaxIter: 20000, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equalish(r.Beta, truth, 1e-6) {
		t.Fatal("μ=0 penalized solution should equal the exact model")
	}
}

func TestSolvePenalizedLargeMuKillsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	z := randn(rng, 5, 100)
	g := randn(rng, 3, 100)
	r, err := SolvePenalized(z, g, 1e9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if BudgetOf(r) != 0 {
		t.Fatalf("huge μ left nonzero coefficients: %v", r.GroupNorms)
	}
}

func TestSolversAgreeThroughDuality(t *testing.T) {
	// Constrained(λ) and Penalized(μ*) with μ* from the budget bisection
	// must find the same support and nearby coefficients.
	rng := rand.New(rand.NewSource(7))
	m, k, n := 10, 4, 300
	z := randn(rng, m, n)
	truth := mat.Zeros(k, m)
	for _, j := range []int{0, 3, 6} {
		for i := 0; i < k; i++ {
			truth.Set(i, j, 1+rng.Float64())
		}
	}
	g := mat.Mul(truth, z)
	noise := randn(rng, k, n)
	g = mat.Add(g, mat.Scale(0.05, noise))

	lambda := 3.0
	rc, err := solveConstrained(z, g, lambda, Options{MaxIter: 8000, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	rp, _, err := SolvePenalizedForBudget(z, g, lambda, 1e-4, Options{MaxIter: 20000, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	selC := r2set(rc.Select(1e-3))
	selP := r2set(rp.Select(1e-3))
	if len(selC) != len(selP) {
		t.Fatalf("supports differ: constrained %v, penalized %v", rc.Select(1e-3), rp.Select(1e-3))
	}
	for j := range selC {
		if !selP[j] {
			t.Fatalf("supports differ: constrained %v, penalized %v", rc.Select(1e-3), rp.Select(1e-3))
		}
	}
	if !mat.Equalish(rc.Beta, rp.Beta, 0.02) {
		t.Error("dual solutions differ beyond tolerance")
	}
}

func r2set(idx []int) map[int]bool {
	s := make(map[int]bool, len(idx))
	for _, i := range idx {
		s[i] = true
	}
	return s
}

func TestMoreBudgetNeverHurtsObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	z := randn(rng, 8, 200)
	g := randn(rng, 3, 200)
	prev := math.Inf(1)
	for _, lambda := range []float64{0.2, 0.5, 1, 2, 4, 8} {
		r, err := solveConstrained(z, g, lambda, Options{MaxIter: 4000})
		if err != nil {
			t.Fatalf("lambda=%v: %v", lambda, err)
		}
		if r.Objective > prev*(1+1e-6) {
			t.Fatalf("objective increased with larger budget: %v then %v", prev, r.Objective)
		}
		prev = r.Objective
	}
}

func TestSelectThreshold(t *testing.T) {
	r := &Result{GroupNorms: []float64{1e-9, 0.5, 1e-4, 2}}
	got := r.Select(1e-3)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Select = %v, want [1 3]", got)
	}
}

func TestSolveConstrainedZeroLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	z := randn(rng, 4, 50)
	g := randn(rng, 2, 50)
	r, err := solveConstrained(z, g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if BudgetOf(r) != 0 {
		t.Fatal("λ=0 must zero every coefficient")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	solveConstrained(mat.Zeros(2, 10), mat.Zeros(2, 11), 1, Options{})
}
