package sparse

import (
	"math"
	"math/rand"
	"testing"

	"voltsense/internal/simd"
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
// fill, so it equals the exact Cholesky factor and its sweeps, on the AVX2
// kernels and on their Go twins, invert A.
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
	for _, vec := range []bool{false, simd.AVX2()} {
		z := make([]float64, a.Rows())
		ic.applyBatch(z, b, 1, vec)
		if res := residualNorm(a, z, b); res > 1e-10 {
			t.Fatalf("vec %v: tridiagonal IC should be exact, residual %g", vec, res)
		}
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
// IC(0)-preconditioned CG, the batch solver at width 1, must take strictly
// fewer iterations than unpreconditioned CG, the oracle with the identity,
// to the same tolerance.
func TestICBeatsPlainCG(t *testing.T) {
	a := gridLaplacianCSR(48, 48, 0.05)
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, a.Rows())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	plain, err := NewCGSolver(a, CGOptions{Tol: 1e-10}, Identity{})
	if err != nil {
		t.Fatal(err)
	}
	plainIt, err := plain.Solve(make([]float64, a.Rows()), b)
	if err != nil {
		t.Fatalf("plain CG: %v", err)
	}
	x, icIt, err := solveColumns(a, [][]float64{b}, nil, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatalf("IC-PCG: %v", err)
	}
	if icIt[0] >= plainIt {
		t.Fatalf("IC-PCG took %d iterations, plain CG %d — preconditioner not helping", icIt[0], plainIt)
	}
	bnorm := norm2(b)
	if res := residualNorm(a, x[0], b); res > 1e-9*bnorm {
		t.Fatalf("IC-PCG residual %g exceeds 1e-9·‖b‖", res)
	}
	t.Logf("grid 48×48: plain CG %d iters, IC(0)-PCG %d iters", plainIt, icIt[0])
}

// TestICConverges512 is the satellite convergence test at 512×512 — a
// quarter-million unknowns, the scale the sparse transient backend
// targets — at widths 1 and 7.
func TestICConverges512(t *testing.T) {
	if testing.Short() {
		t.Skip("512×512 solve skipped in -short mode")
	}
	a := gridLaplacianCSR(512, 512, 0.01)
	n := a.Rows()
	ic, err := NewIC(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, m := range cgWidths {
		b := make([][]float64, m)
		for c := range b {
			b[c] = make([]float64, n)
			for i := range b[c] {
				b[c][i] = rng.Float64()
			}
		}
		x, iters, err := solveColumns(a, b, nil, CGOptions{Tol: 1e-10, Precond: ic})
		if err != nil {
			t.Fatalf("512×512 width %d IC-PCG: %v after %v iterations", m, err, iters)
		}
		for c := range b {
			if res := residualNorm(a, x[c], b[c]); res > 1e-9*norm2(b[c]) {
				t.Fatalf("512×512 width %d column %d residual %g", m, c, res)
			}
		}
		t.Logf("512×512 (n=%d, nnz=%d) width %d: converged in %v iterations", n, a.NNZ(), m, iters)
	}
}

// TestCGSolverZeroAlloc: at widths 1 and 7 the reusable batch solver must
// not allocate per solve — the contract the transient hot loop depends on.
func TestCGSolverZeroAlloc(t *testing.T) {
	a := gridLaplacianCSR(24, 24, 0.1)
	n := a.Rows()
	ic, err := NewIC(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, m := range cgWidths {
		s, err := NewBatchCGSolver(a, m, CGOptions{Tol: 1e-10, Precond: ic})
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n*m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n*m)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.SolveBatch(x, b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("width %d: SolveBatch allocates %v objects per run, want 0", m, allocs)
		}
	}
}

// TestCGSolverWarmStart: at widths 1 and 7, solving again from the
// previous solution converges in zero iterations, the property the
// transient Step leans on.
func TestCGSolverWarmStart(t *testing.T) {
	a := gridLaplacianCSR(16, 16, 0.2)
	n := a.Rows()
	rng := rand.New(rand.NewSource(5))
	for _, m := range cgWidths {
		s, err := NewBatchCGSolver(a, m, CGOptions{Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n*m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n*m)
		iters, err := s.SolveBatch(x, b)
		if err != nil {
			t.Fatal(err)
		}
		cold := append([]int(nil), iters...)
		warm, err := s.SolveBatch(x, b) // x already the solution
		if err != nil {
			t.Fatal(err)
		}
		for c := range warm {
			if warm[c] != 0 {
				t.Fatalf("width %d column %d: warm re-solve took %d iterations, want 0 (cold took %d)", m, c, warm[c], cold[c])
			}
		}
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
