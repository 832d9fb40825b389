package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// L returns the incomplete Cholesky factor (lower triangular, diagonal
// included).
func (m *IC) L() *CSR { return m.l }

// gridLaplacian assembles the 5-point Laplacian of an nx×ny grid plus a
// uniform diagonal shift (the pad conductance that makes power-grid systems
// strictly SPD), using direct CSR assembly — the same fast path the PDN
// backend uses for million-node grids.
func gridLaplacianCSR(nx, ny int, shift float64) *CSR {
	n := nx * ny
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, 5*n)
	val := make([]float64, 0, 5*n)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			i := iy*nx + ix
			deg := 0.0
			if iy > 0 {
				colIdx = append(colIdx, i-nx)
				val = append(val, -1)
				deg++
			}
			if ix > 0 {
				colIdx = append(colIdx, i-1)
				val = append(val, -1)
				deg++
			}
			diagAt := len(val)
			colIdx = append(colIdx, i)
			val = append(val, 0)
			if ix < nx-1 {
				colIdx = append(colIdx, i+1)
				val = append(val, -1)
				deg++
			}
			if iy < ny-1 {
				colIdx = append(colIdx, i+nx)
				val = append(val, -1)
				deg++
			}
			val[diagAt] = deg + shift
			rowPtr[i+1] = len(val)
		}
	}
	return NewCSR(n, n, rowPtr, colIdx, val)
}

func norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func residualNorm(a *CSR, x, b []float64) float64 {
	r := a.MulVec(x)
	s := 0.0
	for i := range r {
		d := b[i] - r[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// TestICExactOnTridiagonal: IC(0) on a tridiagonal matrix has no dropped
// fill, so it equals the exact Cholesky factor and Apply inverts A.
func TestICExactOnTridiagonal(t *testing.T) {
	a := gridLaplacianCSR(9, 1, 0.5) // 1-D chain → tridiagonal
	ic, err := NewIC(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b := make([]float64, a.Rows())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	z := make([]float64, a.Rows())
	ic.Apply(z, b)
	if res := residualNorm(a, z, b); res > 1e-10 {
		t.Fatalf("tridiagonal IC should be exact, residual %g", res)
	}
}

// TestICFactorMatchesPattern: L·Lᵀ reproduces A exactly on A's own sparsity
// pattern (the defining property of IC(0)).
func TestICFactorMatchesPattern(t *testing.T) {
	a := gridLaplacianCSR(6, 5, 0.3)
	ic, err := NewIC(a)
	if err != nil {
		t.Fatal(err)
	}
	l := ic.L()
	n := a.Rows()
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			aij := a.At(i, j)
			if aij == 0 {
				continue
			}
			// (L Lᵀ)_ij = Σ_k L_ik L_jk
			s := 0.0
			for k := 0; k <= j; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			if math.Abs(s-aij) > 1e-12 {
				t.Fatalf("(LLᵀ)[%d][%d] = %g, A = %g", i, j, s, aij)
			}
		}
	}
}

// TestICBeatsPlainCG is the satellite property test: on the grid Laplacian,
// IC(0)-preconditioned CG must take strictly fewer iterations than
// unpreconditioned CG to the same tolerance.
func TestICBeatsPlainCG(t *testing.T) {
	a := gridLaplacianCSR(48, 48, 0.05)
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, a.Rows())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	_, plainIt, err := SolveCG(a, b, nil, CGOptions{Tol: 1e-10, Precond: Identity{}})
	if err != nil {
		t.Fatalf("plain CG: %v", err)
	}
	ic, err := NewIC(a)
	if err != nil {
		t.Fatal(err)
	}
	x, icIt, err := SolveCG(a, b, nil, CGOptions{Tol: 1e-10, Precond: ic})
	if err != nil {
		t.Fatalf("IC-PCG: %v", err)
	}
	if icIt >= plainIt {
		t.Fatalf("IC-PCG took %d iterations, plain CG %d — preconditioner not helping", icIt, plainIt)
	}
	bnorm := norm2(b)
	if res := residualNorm(a, x, b); res > 1e-9*bnorm {
		t.Fatalf("IC-PCG residual %g exceeds 1e-9·‖b‖", res)
	}
	t.Logf("grid 48×48: plain CG %d iters, IC(0)-PCG %d iters", plainIt, icIt)
}

// TestICConverges512 is the satellite convergence test at 512×512 — a
// quarter-million unknowns, the scale the sparse transient backend targets.
func TestICConverges512(t *testing.T) {
	if testing.Short() {
		t.Skip("512×512 solve skipped in -short mode")
	}
	a := gridLaplacianCSR(512, 512, 0.01)
	n := a.Rows()
	rng := rand.New(rand.NewSource(11))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.Float64()
	}
	ic, err := NewIC(a)
	if err != nil {
		t.Fatal(err)
	}
	x, it, err := SolveCG(a, b, nil, CGOptions{Tol: 1e-10, Precond: ic})
	if err != nil {
		t.Fatalf("512×512 IC-PCG: %v after %d iterations", err, it)
	}
	if res := residualNorm(a, x, b); res > 1e-9*norm2(b) {
		t.Fatalf("512×512 residual %g", res)
	}
	t.Logf("512×512 (n=%d, nnz=%d): converged in %d iterations", n, a.NNZ(), it)
}

// TestCGSolverZeroAlloc: the reusable solver must not allocate per Solve —
// the contract the transient hot loop depends on.
func TestCGSolverZeroAlloc(t *testing.T) {
	a := gridLaplacianCSR(24, 24, 0.1)
	n := a.Rows()
	ic, err := NewIC(a)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCGSolver(a, CGOptions{Tol: 1e-10, Precond: ic})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Solve(x, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("CGSolver.Solve allocates %v objects per run, want 0", allocs)
	}
}

// TestCGSolverWarmStart: solving from the previous solution converges in
// zero iterations, the property the transient Step leans on.
func TestCGSolverWarmStart(t *testing.T) {
	a := gridLaplacianCSR(16, 16, 0.2)
	n := a.Rows()
	s, err := NewCGSolver(a, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	cold, err := s.Solve(x, b)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Solve(x, b) // x already the solution
	if err != nil {
		t.Fatal(err)
	}
	if warm != 0 {
		t.Fatalf("warm re-solve took %d iterations, want 0 (cold took %d)", warm, cold)
	}
}

func TestNewCSRValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("bad rowPtr length", func() {
		NewCSR(2, 2, []int{0, 1}, []int{0}, []float64{1})
	})
	expectPanic("unsorted columns", func() {
		NewCSR(1, 3, []int{0, 2}, []int{2, 0}, []float64{1, 1})
	})
	expectPanic("column out of range", func() {
		NewCSR(1, 2, []int{0, 1}, []int{5}, []float64{1})
	})
	// Well-formed input round-trips.
	c := NewCSR(2, 2, []int{0, 2, 3}, []int{0, 1, 1}, []float64{2, -1, 3})
	if c.At(0, 1) != -1 || c.At(1, 1) != 3 || c.At(1, 0) != 0 {
		t.Fatal("NewCSR contents wrong")
	}
}
