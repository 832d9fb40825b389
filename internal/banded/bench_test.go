package banded

import (
	"math/rand"
	"testing"

	"voltsense/internal/simd"
)

// sweepFixture is the factor of the 52×23 quick-pipeline mesh (1196 rows,
// half-bandwidth 23) with min(19, stride) random right-hand sides
// interleaved at the given stride, pad columns zero.
func sweepFixture(b *testing.B, stride int) (*CholFactor, []float64) {
	rng := rand.New(rand.NewSource(61))
	f, err := Factor(meshSystem(rng, 52, 23))
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, f.n*stride)
	for i := 0; i < f.n; i++ {
		for c := 0; c < min(19, stride); c++ {
			x[i*stride+c] = rng.NormFloat64()
		}
	}
	return f, x
}

// restore copies the fixture's right-hand sides back into x before each
// sweep, so no iteration solves an already-solved vector.
func restore(x []float64) func() {
	x0 := append([]float64(nil), x...)
	return func() { copy(x, x0) }
}

// BenchmarkSolveCols19 vs BenchmarkSolveCols19Go: one forward and backward
// sweep of the 19 benchmarks' right-hand sides on the quick mesh, through
// SolveColsInPlace at ColumnStride(19) (the AVX2 kernel where the CPU has
// it) and through the portable Go twin at stride 19. Every iteration first
// restores the right-hand sides (a copy of 1196·stride floats, in both
// timings): solving the solution again and again would shrink it into
// subnormal numbers, which run far slower than the sweep does on real
// data.
func BenchmarkSolveCols19(b *testing.B) {
	stride := ColumnStride(19)
	f, x := sweepFixture(b, stride)
	reset := restore(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reset()
		f.SolveColsInPlace(x, stride)
	}
}

func BenchmarkSolveCols19Go(b *testing.B) {
	f, x := sweepFixture(b, 19)
	reset := restore(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reset()
		f.solveColsGo(x, 19, 0, 19)
	}
}

// BenchmarkSolveWidth1Padded vs BenchmarkSolveWidth1: one right-hand side
// through the AVX2 kernel padded to four columns, and through SolveInPlace,
// the measurement behind ColumnStride(1).
func BenchmarkSolveWidth1Padded(b *testing.B) {
	if !simd.AVX2() {
		b.Skip("no AVX2")
	}
	f, x := sweepFixture(b, 4)
	for i := 0; i < f.n; i++ {
		x[i*4+1], x[i*4+2], x[i*4+3] = 0, 0, 0
	}
	reset := restore(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reset()
		solveColsAVX2(f.data, f.rdiag, x, f.n, f.bw, 4, 1)
	}
}

func BenchmarkSolveWidth1(b *testing.B) {
	f, x := sweepFixture(b, 1)
	reset := restore(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reset()
		f.SolveInPlace(x)
	}
}
