package banded

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"voltsense/internal/mat"
)

// randSPDBanded builds a random diagonally dominant symmetric banded matrix,
// which is guaranteed positive definite.
func randSPDBanded(rng *rand.Rand, n, bw int) *SymBanded {
	s := NewSymBanded(n, bw)
	for i := 0; i < n; i++ {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		rowSum := 0.0
		for j := lo; j < i; j++ {
			v := rng.NormFloat64()
			s.Set(i, j, v)
			rowSum += math.Abs(v)
		}
		s.Set(i, i, rowSum+1+rng.Float64()*float64(bw+1))
	}
	// Fix diagonals so full rows (including upper entries) are dominant.
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				sum += math.Abs(s.At(i, j))
			}
		}
		s.Set(i, i, sum+1)
	}
	return s
}

func toDense(s *SymBanded) *mat.Matrix {
	n := s.Order()
	d := mat.Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d.Set(i, j, s.At(i, j))
		}
	}
	return d
}

func TestAtSetSymmetry(t *testing.T) {
	s := NewSymBanded(5, 2)
	s.Set(3, 1, 7)
	if s.At(1, 3) != 7 {
		t.Fatalf("At(1,3) = %v, want 7 (symmetry)", s.At(1, 3))
	}
	if s.At(0, 4) != 0 {
		t.Fatalf("outside band should read 0, got %v", s.At(0, 4))
	}
}

func TestSetOutsideBandPanics(t *testing.T) {
	s := NewSymBanded(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Set(0, 4, 1)
}

func TestBandwidthClamped(t *testing.T) {
	s := NewSymBanded(3, 10)
	if s.Bandwidth() != 2 {
		t.Fatalf("Bandwidth = %d, want clamped 2", s.Bandwidth())
	}
}

func TestAddAccumulates(t *testing.T) {
	s := NewSymBanded(4, 1)
	s.Add(2, 1, 1.5)
	s.Add(1, 2, 2.5) // symmetric access
	if got := s.At(2, 1); got != 4 {
		t.Fatalf("At(2,1) = %v, want 4", got)
	}
}

// Property: banded MulVec matches the dense product.
func TestMulVecMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		bw := rng.Intn(n)
		s := randSPDBanded(rng, n, bw)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := mat.MulVec(toDense(s), x)
		got := s.MulVec(x)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Factor+Solve inverts MulVec.
func TestFactorSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		bw := rng.Intn(n)
		s := randSPDBanded(rng, n, bw)
		xStar := make([]float64, n)
		for i := range xStar {
			xStar[i] = rng.NormFloat64()
		}
		b := s.MulVec(xStar)
		c, err := Factor(s)
		if err != nil {
			return false
		}
		x := c.Solve(b)
		for i := range x {
			if math.Abs(x[i]-xStar[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFactorMatchesDenseCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := randSPDBanded(rng, 12, 3)
	c, err := Factor(s)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := mat.FactorCholesky(toDense(s))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		for j := 0; j <= i; j++ {
			got := c.at(i, j)
			want := dense.L().At(i, j)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("L(%d,%d) = %v, dense says %v", i, j, got, want)
			}
		}
	}
}

func TestFactorRejectsIndefinite(t *testing.T) {
	s := NewSymBanded(2, 1)
	s.Set(0, 0, 1)
	s.Set(1, 1, 1)
	s.Set(1, 0, 2) // eigenvalues 3, -1
	if _, err := Factor(s); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

func TestSolveInPlaceMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := randSPDBanded(rng, 25, 5)
	c, err := Factor(s)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 25)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := c.Solve(b)
	c.SolveInPlace(b)
	for i := range b {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("SolveInPlace[%d] = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := NewSymBanded(3, 1)
	s.Set(1, 1, 2)
	c := s.Clone()
	c.Set(1, 1, 9)
	if s.At(1, 1) != 2 {
		t.Fatal("Clone shares storage")
	}
}

func BenchmarkFactorGrid64(b *testing.B) {
	// A 64x64 grid Laplacian-like matrix: the shape the PDN solver uses.
	n, bw := 64*64, 64
	s := NewSymBanded(n, bw)
	for i := 0; i < n; i++ {
		s.Set(i, i, 4.5)
		if i%64 != 0 {
			s.Set(i, i-1, -1)
		}
		if i >= 64 {
			s.Set(i, i-64, -1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveGrid64(b *testing.B) {
	n, bw := 64*64, 64
	s := NewSymBanded(n, bw)
	for i := 0; i < n; i++ {
		s.Set(i, i, 4.5)
		if i%64 != 0 {
			s.Set(i, i-1, -1)
		}
		if i >= 64 {
			s.Set(i, i-64, -1)
		}
	}
	c, err := Factor(s)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i % 7)
	}
	buf := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, rhs)
		c.SolveInPlace(buf)
	}
}

func TestSolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := randSPDBanded(rng, 40, 5)
	f, err := Factor(s)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 40)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	orig := append([]float64(nil), b...)
	dst := make([]float64, 40)
	f.SolveInto(dst, b)
	want := f.Solve(b)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("SolveInto[%d] = %g, Solve = %g", i, dst[i], want[i])
		}
		if b[i] != orig[i] {
			t.Fatalf("SolveInto modified its right-hand side at %d", i)
		}
	}
}

func TestSolveIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	s := randSPDBanded(rng, 64, 6)
	f, err := Factor(s)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 64)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	dst := make([]float64, 64)
	if a := testing.AllocsPerRun(50, func() { f.SolveInto(dst, b) }); a != 0 {
		t.Fatalf("SolveInto allocates %v times per run, want 0", a)
	}
}

// BenchmarkSolveInto tracks the no-copy solve the transient engine steps on;
// allocs/op must report 0.
func BenchmarkSolveInto(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	s := randSPDBanded(rng, 2048, 26)
	f, err := Factor(s)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 2048)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	dst := make([]float64, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SolveInto(dst, rhs)
	}
}
