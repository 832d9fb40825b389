package mat

import (
	"math/rand"
	"testing"
)

func benchMatrix(n, m int) *Matrix {
	rng := rand.New(rand.NewSource(1))
	return randMatrix(rng, n, m)
}

func BenchmarkMul128(b *testing.B) {
	x := benchMatrix(128, 128)
	y := benchMatrix(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

// BenchmarkMulSerial128 is the pre-kernel naive triple loop at the same
// shape: the serial baseline the blocked kernel's speedup is measured
// against (cmd/benchreport pairs the two).
func BenchmarkMulSerial128(b *testing.B) {
	x := benchMatrix(128, 128)
	y := benchMatrix(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mulNaive(x, y)
	}
}

func BenchmarkMul256(b *testing.B) {
	x := benchMatrix(256, 256)
	y := benchMatrix(256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMulSerial256(b *testing.B) {
	x := benchMatrix(256, 256)
	y := benchMatrix(256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mulNaive(x, y)
	}
}

func BenchmarkMul512(b *testing.B) {
	x := benchMatrix(512, 512)
	y := benchMatrix(512, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMulSerial512(b *testing.B) {
	x := benchMatrix(512, 512)
	y := benchMatrix(512, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mulNaive(x, y)
	}
}

func BenchmarkMulInto128(b *testing.B) {
	x := benchMatrix(128, 128)
	y := benchMatrix(128, 128)
	dst := Zeros(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}

func BenchmarkMulTall(b *testing.B) {
	// The K-by-N times N-by-M shape of the group-lasso Gram build.
	x := benchMatrix(30, 2000)
	y := benchMatrix(2000, 90)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

// BenchmarkMulTGram is the Gram product Z·Zᵀ exactly as the group-lasso
// solvers now compute it: contraction along contiguous rows, no transpose.
func BenchmarkMulTGram(b *testing.B) {
	z := benchMatrix(90, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulT(z, z)
	}
}

// BenchmarkMulTGramSerial is the same product through the pre-kernel path:
// materialize Zᵀ, then naive multiply.
func BenchmarkMulTGramSerial(b *testing.B) {
	z := benchMatrix(90, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mulNaive(z, z.T())
	}
}

func BenchmarkFactorQR(b *testing.B) {
	// The OLS refit shape: Q selected sensors of N samples each.
	a := benchMatrix(32, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FactorQRColumns(a)
	}
}

// BenchmarkQRSolveMatrix keeps its name across reports: 240 right-hand
// sides through one factorization.
func BenchmarkQRSolveMatrix(b *testing.B) {
	a := benchMatrix(32, 2000)
	rhs := benchMatrix(240, 2000)
	f := FactorQRColumns(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.SolveRows(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholesky(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := spdMatrix(rng, 240) // thermal-network size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FactorCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEigen(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := spdMatrix(rng, 90) // per-core candidate covariance size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FactorSymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStandardize(b *testing.B) {
	m := benchMatrix(240, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Standardize(m)
	}
}
