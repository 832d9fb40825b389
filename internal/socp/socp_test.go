package socp

import (
	"math"
	"math/rand"
	"testing"

	"voltsense/internal/lasso"
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

func budget(norms []float64) float64 {
	s := 0.0
	for _, n := range norms {
		s += n
	}
	return s
}

func TestSolveRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := randn(rng, 6, 120)
	g := randn(rng, 3, 120)
	for _, lambda := range []float64{0.5, 1.5, 4} {
		r, err := SolveGroupLasso(z, g, lambda, Options{})
		if err != nil {
			t.Fatalf("lambda=%v: %v", lambda, err)
		}
		if b := budget(r.GroupNorms); b > lambda*(1+1e-6) {
			t.Fatalf("lambda=%v: budget %v violates constraint", lambda, b)
		}
	}
}

// TestAgreesWithFISTA is the point of the package: the interior-point SOCP
// path and the projected-gradient path must land on the same optimum.
func TestAgreesWithFISTA(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 5+rng.Intn(4), 2+rng.Intn(3), 150
		z := randn(rng, m, n)
		truth := mat.Zeros(k, m)
		for _, j := range []int{0, 2} {
			for i := 0; i < k; i++ {
				truth.Set(i, j, 1+rng.Float64())
			}
		}
		g := mat.Add(mat.Mul(truth, z), mat.Scale(0.05, randn(rng, k, n)))
		lambda := 1.5

		ip, err := SolveGroupLasso(z, g, lambda, Options{})
		if err != nil {
			t.Fatalf("seed %d: socp: %v", seed, err)
		}
		fo, _, err := lasso.NewPathSolver(z, g, lasso.Options{MaxIter: 20000, Tol: 1e-10}).SolveConstrained(lambda)
		if err != nil {
			t.Fatalf("seed %d: fista: %v", seed, err)
		}
		// Same objective value (residual), allowing interior-point slack.
		rFO := math.Sqrt(2 * fo.Objective)
		if math.Abs(ip.Residual-rFO) > 1e-3*(1+rFO) {
			t.Errorf("seed %d: residual %v (socp) vs %v (fista)", seed, ip.Residual, rFO)
		}
		// Same coefficients.
		if !mat.Equalish(ip.Beta, fo.Beta, 5e-3) {
			t.Errorf("seed %d: solutions differ beyond tolerance", seed)
		}
	}
}

func TestLooseBudgetReachesOLS(t *testing.T) {
	// With a budget far above the unconstrained optimum the SOCP solution
	// must match plain least squares.
	rng := rand.New(rand.NewSource(9))
	m, k, n := 4, 2, 200
	z := randn(rng, m, n)
	truth := randn(rng, k, m)
	g := mat.Mul(truth, z)
	r, err := SolveGroupLasso(z, g, 1000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equalish(r.Beta, truth, 1e-2) {
		t.Error("loose-budget SOCP did not recover the exact model")
	}
	if r.Residual > 1e-2 {
		t.Errorf("residual %v on noiseless data", r.Residual)
	}
}

func TestSelectionMatchesPaperExample(t *testing.T) {
	// The Section 2.3 example through the interior-point path: g1=g2=z1,
	// λ=1 → only candidate 1 active, coefficients biased to ≈ 1/√2.
	rng := rand.New(rand.NewSource(3))
	n := 300
	z := mat.Zeros(2, n)
	g := mat.Zeros(2, n)
	for j := 0; j < n; j++ {
		z1 := rng.NormFloat64()
		z.Set(0, j, z1)
		z.Set(1, j, rng.NormFloat64())
		g.Set(0, j, z1)
		g.Set(1, j, z1)
	}
	r, err := SolveGroupLasso(z, g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.GroupNorms[0] < 0.9 || r.GroupNorms[1] > 1e-2 {
		t.Fatalf("norms = %v, want candidate 0 ≈ 1 and candidate 1 ≈ 0", r.GroupNorms)
	}
	want := 1 / math.Sqrt2
	if math.Abs(r.Beta.At(0, 0)-want) > 0.05 || math.Abs(r.Beta.At(1, 0)-want) > 0.05 {
		t.Errorf("β column 0 = [%v %v], want ≈ %v each", r.Beta.At(0, 0), r.Beta.At(1, 0), want)
	}
}

// TestInteriorPointDustExplainsFigure1 verifies the claim EXPERIMENTS.md
// makes about the paper's Figure 1: an interior-point solver leaves the
// rejected groups at small-but-nonzero norms (the 1e-5..1e-10 cloud in the
// paper's log plot), unlike the exactly-sparse first-order iterates. The
// selection threshold T = 1e-3 separates the two populations regardless.
func TestInteriorPointDustExplainsFigure1(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, k, n := 8, 3, 200
	z := randn(rng, m, n)
	truth := mat.Zeros(k, m)
	for _, j := range []int{1, 5} {
		for i := 0; i < k; i++ {
			truth.Set(i, j, 1+rng.Float64())
		}
	}
	g := mat.Add(mat.Mul(truth, z), mat.Scale(0.02, randn(rng, k, n)))
	r, err := SolveGroupLasso(z, g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 1e-3
	selected, dust := 0, 0
	for j, nv := range r.GroupNorms {
		planted := j == 1 || j == 5
		if planted {
			if nv < 10*threshold {
				t.Errorf("planted group %d has norm %v, not clearly selected", j, nv)
			}
			selected++
			continue
		}
		if nv == 0 {
			t.Errorf("rejected group %d is exactly zero; interior points stay strictly inside the cone", j)
		}
		if nv > threshold {
			t.Errorf("rejected group %d has norm %v above T", j, nv)
		}
		dust++
	}
	if selected != 2 || dust != m-2 {
		t.Fatalf("populations: %d selected, %d dust", selected, dust)
	}
}

func TestIterationCountReported(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	z := randn(rng, 3, 80)
	g := randn(rng, 2, 80)
	r, err := SolveGroupLasso(z, g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Iters <= 0 {
		t.Fatal("no Newton iterations recorded")
	}
}

func TestPanicsOnBadInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z := randn(rng, 3, 10)
	g := randn(rng, 2, 10)
	for _, fn := range []func(){
		func() { SolveGroupLasso(z, randn(rng, 2, 11), 1, Options{}) },
		func() { SolveGroupLasso(z, g, 0, Options{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
