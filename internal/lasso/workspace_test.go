package lasso

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// sortedProjectL1Into is the ℓ₁-ball projection with a full sort of v,
// walked from the back for descending order: the oracle of the heap walk in
// projectL1Into.
func sortedProjectL1Into(out, scratch, v []float64, radius float64) {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	if sum <= radius {
		copy(out, v)
		return
	}
	copy(scratch, v)
	slices.Sort(scratch)
	var cum, theta float64
	rho := -1
	for i := len(scratch) - 1; i >= 0; i-- {
		x := scratch[i]
		cnt := len(scratch) - i
		cum += x
		if x-(cum-radius)/float64(cnt) <= 0 {
			break
		}
		rho = cnt - 1
		theta = (cum - radius) / float64(cnt)
	}
	if rho < 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	for i, x := range v {
		if d := x - theta; d > 0 {
			out[i] = d
		} else {
			out[i] = 0
		}
	}
}

// referenceFista is the dense FISTA iteration the support-sized
// fistaState.iterate replaced, kept as its oracle: the full product y·ZZᵀ
// through mat.MulInto, a separate group-norm pass and the sort-based
// projection, then a dense momentum and convergence pass.
type referenceFista struct {
	gr                   *gram
	lambda, step, tk     float64
	beta, next, y, grad  *mat.Matrix
	norms, proj, scratch []float64
}

func newReferenceFista(gr *gram, beta *mat.Matrix, lambda, step float64) *referenceFista {
	k, m := beta.Rows(), beta.Cols()
	f := &referenceFista{gr: gr, lambda: lambda, step: step, tk: 1, beta: beta,
		next: mat.Zeros(k, m), grad: mat.Zeros(k, m),
		norms: make([]float64, m), proj: make([]float64, m), scratch: make([]float64, m)}
	f.project(beta)
	f.y = beta.Clone()
	return f
}

func (f *referenceFista) project(beta *mat.Matrix) {
	groupNormsInto(f.norms, beta)
	sum := 0.0
	for _, n := range f.norms {
		sum += n
	}
	if sum <= f.lambda {
		return
	}
	sortedProjectL1Into(f.proj, f.scratch, f.norms, f.lambda)
	for j := range f.proj {
		if f.norms[j] == 0 {
			f.proj[j] = 0
		} else {
			f.proj[j] /= f.norms[j]
		}
	}
	for i := 0; i < beta.Rows(); i++ {
		row := beta.Row(i)
		for j := range row {
			row[j] *= f.proj[j]
		}
	}
}

func (f *referenceFista) iterate() float64 {
	mat.MulInto(f.grad, f.y, f.gr.zzt)
	gd, gzd := f.grad.Data(), f.gr.gzt.Data()
	yd, nd, bd := f.y.Data(), f.next.Data(), f.beta.Data()
	for i, gv := range gd {
		nd[i] = yd[i] - f.step*(gv-gzd[i])
	}
	f.project(f.next)
	tNext := (1 + math.Sqrt(1+4*f.tk*f.tk)) / 2
	mom := (f.tk - 1) / tNext
	var diffSq, baseSq float64
	for i, nv := range nd {
		d := nv - bd[i]
		yd[i] = nv + mom*d
		diffSq += d * d
		baseSq += nv * nv
	}
	f.beta, f.next = f.next, f.beta
	f.tk = tNext
	base := math.Sqrt(baseSq)
	if base == 0 {
		base = 1
	}
	return math.Sqrt(diffSq) / base
}

// sparseProblem draws a K-output, M-candidate instance whose outputs depend
// on `active` candidates plus noise, so a budget-constrained solve settles
// on a small support.
func sparseProblem(rng *rand.Rand, k, m, n, active int) (*mat.Matrix, *mat.Matrix) {
	z := randn(rng, m, n)
	b := mat.Zeros(k, m)
	for _, j := range rng.Perm(m)[:active] {
		for i := 0; i < k; i++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	g := mat.Add(mat.Mul(b, z), mat.Scale(0.3, randn(rng, k, n)))
	return z, g
}

// TestFistaIterateMatchesReference runs the support-sized iteration beside
// the dense oracle and requires equal iterates, momentum points and
// convergence statistics after every one of 80 steps: M mod 4 = 0, 1, 2
// and 3, M past mat's 256-wide k-tile, a warm start outside the ball, a
// budget so large that the projection is the identity, and cold starts
// whose support first grows and then shrinks.
func TestFistaIterateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	cases := []struct {
		name              string
		k, m, n, active   int
		lambda, warmScale float64
	}{
		{"m%4=0", 30, 36, 200, 8, 24, 0},
		{"m%4=1", 30, 37, 200, 8, 24, 0},
		{"m%4=2", 12, 38, 150, 6, 16, 0},
		{"m%4=3", 7, 39, 150, 5, 12, 0},
		{"m>256", 3, 263, 300, 12, 10, 0},
		{"warm outside ball", 10, 41, 150, 6, 2, 3},
		{"identity projection", 6, 22, 120, 4, 1e9, 0.5},
	}
	for _, c := range cases {
		z, g := sparseProblem(rng, c.k, c.m, c.n, c.active)
		gr := newGram(z, g)
		step := 1 / gr.lipschitz()
		warm := mat.Zeros(c.k, c.m)
		if c.warmScale > 0 {
			warm = mat.Scale(c.warmScale, randn(rng, c.k, c.m))
		}
		got := newFistaState(gr, warm.Clone(), c.lambda, step)
		want := newReferenceFista(gr, warm.Clone(), c.lambda, step)
		sameMatrix(t, c.name+" start", got.beta, want.beta)
		grew, shrank, prev := false, false, len(got.bSup)
		for it := 1; it <= 80; it++ {
			dg, dw := got.iterate(), want.iterate()
			what := fmt.Sprintf("%s iteration %d", c.name, it)
			if dg != dw {
				t.Fatalf("%s: relative change %v, reference %v", what, dg, dw)
			}
			sameMatrix(t, what+" β", got.beta, want.beta)
			sameMatrix(t, what+" y", got.y, want.y)
			grew = grew || len(got.bSup) > prev
			shrank = shrank || len(got.bSup) < prev
			prev = len(got.bSup)
		}
		if c.warmScale == 0 && (!grew || !shrank) {
			t.Errorf("%s: support never both grew and shrank (grew %v, shrank %v)", c.name, grew, shrank)
		}
		if c.lambda < 1e9 && len(got.bSup) == c.m {
			t.Errorf("%s: support stayed dense; the sparse path went untested", c.name)
		}
	}
}

// sameMatrix requires a == b elementwise.
func sameMatrix(t *testing.T, what string, a, b *mat.Matrix) {
	t.Helper()
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if ad[i] != bd[i] {
			t.Fatalf("%s: element %d is %v, reference %v", what, i, ad[i], bd[i])
		}
	}
}

// TestProjectL1HeapMatchesSort: the heap walk of projectL1Into returns what
// the full sort returns, ties and zeros included.
func TestProjectL1HeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		v := make([]float64, n)
		for i := range v {
			switch rng.Intn(4) {
			case 0: // zero
			case 1:
				v[i] = float64(rng.Intn(3)) // ties
			default:
				v[i] = rng.ExpFloat64()
			}
		}
		radius := rng.Float64() * 3
		if trial%10 == 0 {
			radius = 0
		}
		got, want := make([]float64, n), make([]float64, n)
		projectL1Into(got, make([]float64, n), v, radius)
		sortedProjectL1Into(want, make([]float64, n), v, radius)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: v=%v radius %v: heap %v, sort %v", trial, v, radius, got, want)
			}
		}
	}
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

// referencePenalized is the block coordinate descent sweep before its
// kernels: At/Set indexing and the scalar update of s. It is the oracle of
// solvePenalizedGram, whose sweep indexes directly and updates s through
// addScaled.
func referencePenalized(gr *gram, mu float64, opt Options, beta *mat.Matrix) (*Result, error) {
	opt = opt.withDefaults()
	k, m := beta.Rows(), beta.Cols()

	// s = β·ZZᵀ, maintained incrementally as groups change; the group-j
	// statistic is then u_i = (GZᵀ)[i][j] − s[i][j] + β[i][j]·(ZZᵀ)[j][j].
	s := mat.Zeros(k, m)
	if !betaIsZero(beta) {
		mat.MulInto(s, beta, gr.zzt)
	}

	zsq := make([]float64, m)
	for j := 0; j < m; j++ {
		zsq[j] = gr.zzt.At(j, j)
	}

	u := make([]float64, k)
	var iters int
	for iters = 1; iters <= opt.MaxIter; iters++ {
		maxChange, maxCoef := 0.0, 0.0
		for j := 0; j < m; j++ {
			if zsq[j] == 0 {
				continue // constant-zero feature can never be active
			}
			for i := 0; i < k; i++ {
				u[i] = gr.gzt.At(i, j) - s.At(i, j) + beta.At(i, j)*zsq[j]
			}
			un := mat.Norm2(u)
			var scale float64
			if un > mu {
				scale = (1 - mu/un) / zsq[j]
			}
			zztRow := gr.zzt.Row(j)
			for i := 0; i < k; i++ {
				old := beta.At(i, j)
				nv := scale * u[i]
				if nv != old {
					d := nv - old
					// s[i][:] += d * (ZZᵀ)[j][:]
					si := s.Row(i)
					for c, zc := range zztRow {
						si[c] += d * zc
					}
					beta.Set(i, j, nv)
					if ad := math.Abs(d); ad > maxChange {
						maxChange = ad
					}
				}
				if av := math.Abs(nv); av > maxCoef {
					maxCoef = av
				}
			}
		}
		if maxCoef == 0 {
			maxCoef = 1
		}
		if maxChange/maxCoef < opt.Tol {
			break
		}
	}
	r := &Result{Beta: beta, GroupNorms: groupNorms(beta), Iters: iters,
		Objective: gr.objective(beta)}
	if iters > opt.MaxIter {
		r.Iters = opt.MaxIter
		return r, ErrDidNotConverge
	}
	return r, nil
}

// TestPenalizedMatchesReference: the production BCD sweep returns the
// reference sweep's coefficients, iteration count and objective bitwise,
// cold and warm, for M mod 4 = 0–3 and μ from heavy to light.
func TestPenalizedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, m := range []int{20, 21, 38, 39} {
		z, g := sparseProblem(rng, 7, m, 150, 5)
		gr := newGram(z, g)
		warm := randn(rng, 7, m)
		for _, mu := range []float64{5, 1, 0.2, 0} {
			for _, start := range []*mat.Matrix{mat.Zeros(7, m), warm} {
				opt := Options{MaxIter: 200, Tol: 1e-12}
				got, errGot := solvePenalizedGram(gr, mu, opt, start.Clone())
				want, errWant := referencePenalized(gr, mu, opt, start.Clone())
				what := fmt.Sprintf("m=%d mu=%g", m, mu)
				if errGot != errWant || got.Iters != want.Iters || got.Objective != want.Objective {
					t.Fatalf("%s: (%v, %d iters, obj %v), reference (%v, %d, %v)", what, errGot, got.Iters, got.Objective, errWant, want.Iters, want.Objective)
				}
				sameMatrix(t, what, got.Beta, want.Beta)
			}
		}
	}
}
