package mat

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// spdMatrix builds a random symmetric positive definite matrix AᵀA + I.
func spdMatrix(rng *rand.Rand, n int) *Matrix {
	a := randMatrix(rng, n, n)
	s := Mul(a.T(), a)
	for i := 0; i < n; i++ {
		s.Set(i, i, s.At(i, i)+1)
	}
	return s
}

// qrSolve returns the least-squares solution of a x = b through the
// column-layout QR: a's columns are the rows of aᵀ, b is one right-hand side.
func qrSolve(a *Matrix, b []float64) ([]float64, error) {
	x, err := FactorQRColumns(a.T()).SolveRows(New(1, len(b), b))
	if err != nil {
		return nil, err
	}
	return x.Row(0), nil
}

func TestQRSolveExact(t *testing.T) {
	// Square well-conditioned system: the least-squares solution is exact.
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	b := []float64{5, 10}
	x, err := qrSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5, x + 3y = 10 → x = 1, y = 3.
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

// Property: for a random overdetermined consistent system A x* = b, QR
// recovers x*.
func TestQRRecoversConsistentSolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		m := n + r.Intn(10)
		a := randMatrix(r, m, n)
		xStar := make([]float64, n)
		for i := range xStar {
			xStar[i] = r.NormFloat64()
		}
		b := MulVec(a, xStar)
		x, err := qrSolve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-xStar[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: QR least-squares residual is orthogonal to the column space:
// Aᵀ(Ax − b) = 0.
func TestQRNormalEquationsResidual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		m := n + 2 + r.Intn(10)
		a := randMatrix(r, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := qrSolve(a, b)
		if err != nil {
			return false
		}
		res := SubVec(MulVec(a, x), b)
		for _, g := range MulTVec(a, res) {
			if math.Abs(g) >= 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQRSolveMatrixMultiRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMatrix(rng, 10, 4)
	xStar := randMatrix(rng, 4, 3)
	b := Mul(a, xStar)
	x, err := FactorQRColumns(a.T()).SolveRows(b.T())
	if err != nil {
		t.Fatal(err)
	}
	if !Equalish(x, xStar.T(), 1e-8) {
		t.Error("SolveRows did not recover the planted solution")
	}
}

func TestQRSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}}) // rank 1
	_, err := qrSolve(a, []float64{1, 2, 3})
	if err == nil {
		t.Fatal("expected ErrSingular for rank-deficient matrix")
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := spdMatrix(r, n)
		c, err := FactorCholesky(a)
		if err != nil {
			return false
		}
		return Equalish(Mul(c.L(), c.L().T()), a, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCholeskySolve(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := spdMatrix(r, n)
		xStar := make([]float64, n)
		for i := range xStar {
			xStar[i] = r.NormFloat64()
		}
		b := MulVec(a, xStar)
		c, err := FactorCholesky(a)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := FactorCholesky(a); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

func TestLUSolvePivots(t *testing.T) {
	a := FromRows([][]float64{{0, 2}, {1, 1}}) // needs pivoting
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve([]float64{4, 3})
	// 2y = 4 → y = 2; x + y = 3 → x = 1.
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v, want [1 2]", x)
	}
}

// Property: LU solve inverts multiplication for random nonsingular systems.
func TestLURoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := Add(randMatrix(r, n, n), Scale(5, Eye(n)))
		xStar := make([]float64, n)
		for i := range xStar {
			xStar[i] = r.NormFloat64()
		}
		lu, err := FactorLU(a)
		if err != nil {
			return false
		}
		x := lu.Solve(MulVec(a, xStar))
		for i := range x {
			if math.Abs(x[i]-xStar[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestLUInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Add(randMatrix(rng, 6, 6), Scale(4, Eye(6)))
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := Mul(a, f.Inverse()); !Equalish(got, Eye(6), 1e-9) {
		t.Error("A * A⁻¹ != I")
	}
}

func TestQRvsCholeskyOnNormalEquations(t *testing.T) {
	// The two solvers must agree on the same least-squares problem.
	rng := rand.New(rand.NewSource(10))
	a := randMatrix(rng, 30, 5)
	b := make([]float64, 30)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xQR, err := qrSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ata := Mul(a.T(), a)
	atb := MulTVec(a, b)
	c, err := FactorCholesky(ata)
	if err != nil {
		t.Fatal(err)
	}
	xChol := c.Solve(atb)
	for i := range xQR {
		if math.Abs(xQR[i]-xChol[i]) > 1e-8 {
			t.Fatalf("QR and Cholesky disagree at %d: %v vs %v", i, xQR[i], xChol[i])
		}
	}
}

// The column-layout QR must be bitwise identical at every worker count: the
// right-hand sides split by rows across the pool, four per pass, and each
// row's reflector arithmetic is fixed. K = 243 leaves a remainder row past
// the four-row groups, and the shape is large enough that the split really
// happens at two shares. Run at GOMAXPROCS 1 and 2 as well as under
// SetParallelism.
func TestQRSolveRowsInvariantUnderParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, m, k = 16, 400, 243
	a := randMatrix(rng, n, m)
	for j := 0; j < m; j += 7 {
		a.Set(3, j, 0) // exact zeros in a reflector take the skip path
	}
	b := randMatrix(rng, k, m)
	if 2*minRowsPerChunk(4*n*m) > k {
		t.Fatalf("shape %dx%d with %d rows would not split across two shares", n, m, k)
	}
	SetParallelism(1)
	defer SetParallelism(0)
	want, err := FactorQRColumns(a).SolveRows(b)
	if err != nil {
		t.Fatal(err)
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 2, 3} {
			SetParallelism(workers)
			got, err := FactorQRColumns(a).SolveRows(b)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range want.Data() {
				if got.Data()[i] != v {
					t.Fatalf("GOMAXPROCS %d, parallelism %d: entry %d = %v, serial %v", procs, workers, i, got.Data()[i], v)
				}
			}
		}
	}
}

// ApplyQT is the factorization's Qᵀ: applied to A's own columns it gives R
// stacked over zeros, and it preserves the norm of any right-hand side.
func TestQRApplyQTIsOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, m = 5, 30
	a := randMatrix(rng, n, m)
	f := FactorQRColumns(a)
	// Qᵀ applied to A's own columns gives R stacked over zeros.
	qta := a.Clone()
	f.ApplyQT(qta)
	r := f.R()
	for c := 0; c < n; c++ {
		for i := 0; i < m; i++ {
			want := 0.0
			if i < n {
				want = r.At(i, c)
			}
			if math.Abs(qta.At(c, i)-want) > 1e-12 {
				t.Fatalf("(QᵀA)[%d][%d] = %v, want %v", i, c, qta.At(c, i), want)
			}
		}
	}
	b := randMatrix(rng, 3, m)
	qtb := b.Clone()
	f.ApplyQT(qtb)
	for i := 0; i < 3; i++ {
		if d := Norm2(qtb.Row(i)) - Norm2(b.Row(i)); math.Abs(d) > 1e-12 {
			t.Fatalf("row %d: ‖Qᵀb‖ − ‖b‖ = %v", i, d)
		}
	}
}
