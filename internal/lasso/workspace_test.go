package lasso

import (
	"math"
	"math/rand"
	"testing"

	"voltsense/internal/mat"
)

// referenceSolveConstrained is the straightforward pre-workspace FISTA
// implementation — allocate-per-iteration mat.Sub/Mul/Scale chains and a
// fresh projection workspace every step — kept as the golden oracle for the
// path solver's constrained solve.
func referenceSolveConstrained(z, g *mat.Matrix, lambda float64, opt Options) *Result {
	opt = opt.withDefaults()
	k, m := g.Rows(), z.Rows()
	zt := z.T()
	gr := &gram{zzt: mat.Mul(z, zt), gzt: mat.Mul(g, zt)}
	f := g.FrobeniusNorm()
	gr.trGG = f * f
	step := 1 / gr.lipschitz()

	beta := mat.Zeros(k, m)
	y := mat.Zeros(k, m)
	tk := 1.0
	for it := 1; it <= opt.MaxIter; it++ {
		grad := mat.Sub(mat.Mul(y, gr.zzt), gr.gzt)
		next := mat.Sub(y, mat.Scale(step, grad))
		newProjWS(m).projectGroupBall(next, lambda)
		tNext := (1 + math.Sqrt(1+4*tk*tk)) / 2
		mom := (tk - 1) / tNext
		yd, nd, bd := y.Data(), next.Data(), beta.Data()
		for i := range yd {
			yd[i] = nd[i] + mom*(nd[i]-bd[i])
		}
		prev := beta
		beta = next
		tk = tNext
		diff := mat.Sub(beta, prev).FrobeniusNorm()
		base := beta.FrobeniusNorm()
		if base == 0 {
			base = 1
		}
		if diff/base < opt.Tol {
			break
		}
	}
	return &Result{Beta: beta, GroupNorms: groupNorms(beta), Objective: gr.objective(beta)}
}

// TestWorkspaceSolverMatchesReference pins the zero-allocation FISTA rewrite
// to the naive implementation: same selected support, coefficients within
// 1e-9, objective within 1e-9, across several shapes and budgets.
func TestWorkspaceSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		k, m, n int
		lambda  float64
	}{
		{1, 5, 40, 1.5},
		{3, 17, 60, 4},
		{4, 30, 90, 8},
		{2, 9, 25, 0.5},
	}
	opt := Options{MaxIter: 800, Tol: 1e-9}
	for _, c := range cases {
		z := randn(rng, c.m, c.n)
		g := randn(rng, c.k, c.n)
		want := referenceSolveConstrained(z, g, c.lambda, opt)
		got, err := solveConstrained(z, g, c.lambda, opt)
		if err != nil {
			t.Fatalf("k=%d m=%d: %v", c.k, c.m, err)
		}
		if d := mat.MaxAbsDiff(got.Beta, want.Beta); d > 1e-9 {
			t.Errorf("k=%d m=%d λ=%v: coefficients differ from reference by %g", c.k, c.m, c.lambda, d)
		}
		if d := math.Abs(got.Objective - want.Objective); d > 1e-9*(1+want.Objective) {
			t.Errorf("k=%d m=%d λ=%v: objective %v vs reference %v", c.k, c.m, c.lambda, got.Objective, want.Objective)
		}
		gotSel, wantSel := got.Select(1e-3), want.Select(1e-3)
		if len(gotSel) != len(wantSel) {
			t.Fatalf("k=%d m=%d λ=%v: selected %v, reference %v", c.k, c.m, c.lambda, gotSel, wantSel)
		}
		for i := range gotSel {
			if gotSel[i] != wantSel[i] {
				t.Fatalf("k=%d m=%d λ=%v: selected %v, reference %v", c.k, c.m, c.lambda, gotSel, wantSel)
			}
		}
	}
}

// TestSolveConstrainedInvariantUnderParallelism asserts the production
// solver returns bitwise-identical coefficients — and therefore identical
// sensor selections — for any mat worker count.
func TestSolveConstrainedInvariantUnderParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	z := randn(rng, 40, 120)
	g := randn(rng, 6, 120)
	opt := Options{MaxIter: 400, Tol: 1e-8}

	defer mat.SetParallelism(mat.SetParallelism(1))
	serial, err := solveConstrained(z, g, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		mat.SetParallelism(workers)
		par, err := solveConstrained(z, g, 6, opt)
		if err != nil {
			t.Fatal(err)
		}
		sd, pd := serial.Beta.Data(), par.Beta.Data()
		for i := range sd {
			if sd[i] != pd[i] {
				t.Fatalf("workers=%d: coefficient %d differs bitwise: %v vs %v", workers, i, pd[i], sd[i])
			}
		}
	}
}

// TestFistaSteadyStateZeroAllocs is the acceptance guard for the workspace
// rewrite: once the solver state exists, an iteration must not touch the
// heap. The serial kernel path is forced because the parallel dispatcher
// hands closures to the worker pool (a handful of bytes per call, but not
// zero).
func TestFistaSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	z := randn(rng, 30, 80)
	g := randn(rng, 5, 80)
	defer mat.SetParallelism(mat.SetParallelism(1))

	gr := newGram(z, g)
	st := newFistaState(gr, mat.Zeros(g.Rows(), z.Rows()), 4, 1/gr.lipschitz())
	st.iterate() // warm up: first projection may take the inside-ball path

	allocs := testing.AllocsPerRun(200, func() {
		st.iterate()
	})
	if allocs != 0 {
		t.Fatalf("FISTA steady-state iteration allocates %v objects/op, want 0", allocs)
	}
}

// TestPenalizedSteadyStateAllocs pins the BCD solver's inner sweep: after
// the first full pass, subsequent sweeps reuse the same buffers.
func TestPenalizedSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	z := randn(rng, 20, 60)
	g := randn(rng, 4, 60)
	defer mat.SetParallelism(mat.SetParallelism(1))

	// One converged solve warms every code path; a second solve's
	// allocations are then dominated by the fixed setup (Gram, buffers),
	// bounded well below one allocation per iteration.
	r, err := SolvePenalized(z, g, 0.5, Options{MaxIter: 500, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Iters < 3 {
		t.Skipf("BCD converged in %d iterations; too few to measure steady state", r.Iters)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := SolvePenalized(z, g, 0.5, Options{MaxIter: 500, Tol: 1e-10}); err != nil {
			t.Fatal(err)
		}
	})
	perIter := allocs / float64(r.Iters)
	if perIter >= 1 {
		t.Fatalf("SolvePenalized allocates %.1f objects per solve (%.2f/iteration); the sweep loop should not allocate", allocs, perIter)
	}
}
