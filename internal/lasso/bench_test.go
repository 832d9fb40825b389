package lasso

import (
	"math/rand"
	"testing"

	"voltsense/internal/mat"
)

func benchProblem(k, m, n int) (*mat.Matrix, *mat.Matrix) {
	rng := rand.New(rand.NewSource(6))
	return randn(rng, m, n), randn(rng, k, n)
}

// BenchmarkSolveConstrained covers the full cold solve through a fresh path
// solver — Gram build, FISTA iterations, group norms. allocs/op is the
// guard: it must stay proportional to the fixed workspace setup, not to the
// iteration count.
func BenchmarkSolveConstrained(b *testing.B) {
	z, g := benchProblem(8, 60, 600)
	opt := Options{MaxIter: 300, Tol: 1e-8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := NewPathSolver(z, g, opt).SolveConstrained(6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFistaIterate isolates the steady-state hot loop; with the serial
// kernel path pinned it must report exactly 0 allocs/op.
func BenchmarkFistaIterate(b *testing.B) {
	z, g := benchProblem(8, 60, 600)
	defer mat.SetParallelism(mat.SetParallelism(1))
	gr := newGram(z, g)
	st := newFistaState(gr, mat.Zeros(g.Rows(), z.Rows()), 6, 1/gr.lipschitz())
	st.iterate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.iterate()
	}
}

// table1Fista is a Table-1-shaped constrained solve (K = 30 outputs, M = 38
// candidates, 8 of them driving the outputs) advanced 200 iterations, to
// where the iterate's support has settled on about 8 groups.
func table1Fista(b *testing.B) (*gram, *mat.Matrix, float64, float64) {
	z, g := sparseProblem(rand.New(rand.NewSource(8)), 30, 38, 800, 8)
	gr := newGram(z, g)
	st := newFistaState(gr, mat.Zeros(30, 38), 12, 1/gr.lipschitz())
	for i := 0; i < 200; i++ {
		st.iterate()
	}
	if n := len(st.bSup); n < 6 || n > 10 {
		b.Fatalf("fixture support has %d groups, want about 8", n)
	}
	return gr, st.beta.Clone(), st.lambda, st.step
}

// BenchmarkFistaIterateSupport vs BenchmarkFistaIterateReference: one FISTA
// iteration on the Table-1-shaped fixture, sized to the support versus the
// dense oracle (full y·ZZᵀ and dense passes). benchreport reports the
// pair's speedup; both run serial kernels.
func BenchmarkFistaIterateSupport(b *testing.B) {
	defer mat.SetParallelism(mat.SetParallelism(1))
	gr, beta, lambda, step := table1Fista(b)
	st := newFistaState(gr, beta, lambda, step)
	st.iterate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.iterate()
	}
}

// BenchmarkFistaIterateSupportGo is BenchmarkFistaIterateSupport with the
// row and scale passes on their portable Go twins instead of the AVX2
// kernels; benchreport reports the kernels' speedup.
func BenchmarkFistaIterateSupportGo(b *testing.B) {
	defer mat.SetParallelism(mat.SetParallelism(1))
	gr, beta, lambda, step := table1Fista(b)
	st := newFistaState(gr, beta, lambda, step)
	st.proj.vec = false
	st.iterate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.iterate()
	}
}

func BenchmarkFistaIterateReference(b *testing.B) {
	defer mat.SetParallelism(mat.SetParallelism(1))
	gr, beta, lambda, step := table1Fista(b)
	st := newReferenceFista(gr, beta, lambda, step)
	st.iterate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.iterate()
	}
}

// BenchmarkSolvePenalized vs BenchmarkSolvePenalizedGo: one cold block
// coordinate descent solve, Gram included, through the production sweep
// (direct indexing, the AVX2 update of s) and through referencePenalized,
// the portable sweep it replaced (At/Set, scalar update). benchreport
// reports the pair's speedup.
func BenchmarkSolvePenalized(b *testing.B) {
	z, g := benchProblem(8, 60, 600)
	opt := Options{MaxIter: 300, Tol: 1e-8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolvePenalized(z, g, 0.5, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolvePenalizedGo(b *testing.B) {
	z, g := benchProblem(8, 60, 600)
	opt := Options{MaxIter: 300, Tol: 1e-8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := referencePenalized(newGram(z, g), 0.5, opt, mat.Zeros(g.Rows(), z.Rows())); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLambdas is the Table 1 budget grid the placement pipeline sweeps.
var benchLambdas = []float64{8, 6, 5, 4, 3, 2}

// BenchmarkSolvePathCold is the pre-path baseline: a fresh path solver per
// budget, each rebuilding the Gram and starting FISTA from zero — exactly
// what every placement did per λ before the path solver.
func BenchmarkSolvePathCold(b *testing.B) {
	z, g := benchProblem(8, 60, 600)
	opt := Options{MaxIter: 2000, Tol: 1e-8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range benchLambdas {
			if _, _, err := NewPathSolver(z, g, opt).SolveConstrained(l); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSolvePathWarm drives one path solver down the same budgets: one
// Gram, warm starts between points, screening ahead of each solve.
// benchreport pairs this against BenchmarkSolvePathCold.
func BenchmarkSolvePathWarm(b *testing.B) {
	z, g := benchProblem(8, 60, 600)
	opt := Options{MaxIter: 2000, Tol: 1e-8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := NewPathSolver(z, g, opt)
		for _, l := range benchLambdas {
			if _, _, err := ps.SolveConstrained(l); err != nil {
				b.Fatal(err)
			}
		}
	}
}
