package sparse

import (
	"math/rand"
	"runtime"
	"testing"
)

// batchFixture builds an SPD grid system with nrhs random right-hand sides
// and warm starts, returned both interleaved and as per-column slices.
func batchFixture(nx, ny, nrhs int, seed int64) (a *CSR, xI, bI []float64, xCols, bCols [][]float64) {
	a = gridLaplacianCSR(nx, ny, 0.3)
	n := a.Rows()
	rng := rand.New(rand.NewSource(seed))
	xI = make([]float64, n*nrhs)
	bI = make([]float64, n*nrhs)
	xCols = make([][]float64, nrhs)
	bCols = make([][]float64, nrhs)
	for c := 0; c < nrhs; c++ {
		xCols[c] = make([]float64, n)
		bCols[c] = make([]float64, n)
		for i := 0; i < n; i++ {
			bCols[c][i] = rng.NormFloat64()
			xCols[c][i] = 0.05 * rng.NormFloat64()
		}
		PackColumn(bI, bCols[c], c, nrhs)
		PackColumn(xI, xCols[c], c, nrhs)
	}
	return
}

// mkPre builds the named preconditioner for a: "mic" is modified IC(0),
// "default" is nil, which both solvers turn into plain IC(0).
func mkPre(t *testing.T, a *CSR, name string) Preconditioner {
	t.Helper()
	if name == "default" {
		return nil
	}
	ic, err := NewICModified(a, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return ic
}

// TestSolveBatchBitwiseMatchesLooped: the core equivalence contract — with
// modified and plain IC(0), SolveBatch produces bit-for-bit the same
// solutions and iteration counts as looping CGSolver.Solve column by
// column. Not a tolerance comparison: the operation orders are engineered
// to coincide.
func TestSolveBatchBitwiseMatchesLooped(t *testing.T) {
	const nrhs = 3
	for _, name := range []string{"mic", "default"} {
		a, xI, bI, xCols, bCols := batchFixture(33, 27, nrhs, 12)
		opt := CGOptions{Tol: 1e-11, Precond: mkPre(t, a, name)}
		bs, err := NewBatchCGSolver(a, nrhs, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		iters, err := bs.SolveBatch(xI, bI)
		if err != nil {
			t.Fatalf("%s: batch: %v", name, err)
		}
		ss, err := NewCGSolver(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, a.Rows())
		for c := 0; c < nrhs; c++ {
			itWant, err := ss.Solve(xCols[c], bCols[c])
			if err != nil {
				t.Fatalf("%s col %d: looped: %v", name, c, err)
			}
			if iters[c] != itWant {
				t.Fatalf("%s col %d: %d iterations, looped %d", name, c, iters[c], itWant)
			}
			UnpackColumn(got, xI, c, nrhs)
			for i := range got {
				if got[i] != xCols[c][i] {
					t.Fatalf("%s col %d: x[%d] = %v, looped %v (not bitwise identical)",
						name, c, i, got[i], xCols[c][i])
				}
			}
		}
	}
}

// TestNewBatchCGSolverRejectsNonIC: the batch sweeps need the IC factor,
// so any other preconditioner is refused at construction.
func TestNewBatchCGSolverRejectsNonIC(t *testing.T) {
	a := gridLaplacianCSR(8, 8, 0.3)
	if _, err := NewBatchCGSolver(a, 2, CGOptions{Precond: Identity{}}); err == nil {
		t.Fatal("Identity preconditioner accepted")
	}
}

// TestSolveBatchInvariantUnderParallelism: batch solves are bitwise
// identical across worker counts too, at GOMAXPROCS 1 and 2.
func TestSolveBatchInvariantUnderParallelism(t *testing.T) {
	const nrhs = 4
	a, x0, bI, _, _ := batchFixture(splitNX, splitNY, nrhs, 21)
	n := a.Rows()
	ic := mkPre(t, a, "mic")
	var ref []float64
	var refIt []int
	atProcs(func() {
		procs := runtime.GOMAXPROCS(0)
		for _, w := range workerCounts() {
			bs, err := NewBatchCGSolver(a, nrhs, CGOptions{Tol: 1e-11, Precond: ic, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if w == 2 {
				requireSplit(t, &bs.t, n, rowChunk/nrhs)
				requireSplit(t, &bs.t, numDotBlocks(n), dotBlockChunk)
				requireSplit(t, &bs.t, n, bs.batchRowChunk())
			}
			xI := append([]float64(nil), x0...)
			iters, err := bs.SolveBatch(xI, bI)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = xI
				refIt = append([]int(nil), iters...)
				continue
			}
			for c := range refIt {
				if iters[c] != refIt[c] {
					t.Fatalf("procs=%d workers=%d col %d: %d iterations, want %d", procs, w, c, iters[c], refIt[c])
				}
			}
			for i := range ref {
				if xI[i] != ref[i] {
					t.Fatalf("procs=%d workers=%d: x[%d] = %v, want %v (not bitwise identical)", procs, w, i, xI[i], ref[i])
				}
			}
		}
	})
}

// TestSolveBatchMixedConvergence: columns converging at different
// iterations freeze independently — a trivially-converged warm start and a
// zero RHS ride along with hard columns without perturbing them.
func TestSolveBatchMixedConvergence(t *testing.T) {
	const nrhs = 3
	a, xI, bI, xCols, bCols := batchFixture(25, 25, nrhs, 30)
	n := a.Rows()
	// Column 0: zero RHS → solution zeroed, 0 iterations.
	for i := 0; i < n; i++ {
		bI[i*nrhs] = 0
		bCols[0][i] = 0
	}
	// Column 1: warm start = exact solution of its system.
	opt := CGOptions{Tol: 1e-11, Precond: mkPre(t, a, "mic")}
	exact, _, err := SolveCG(a, bCols[1], nil, CGOptions{Tol: 1e-14, Precond: mkPre(t, a, "mic")})
	if err != nil {
		t.Fatal(err)
	}
	copy(xCols[1], exact)
	PackColumn(xI, exact, 1, nrhs)

	bs, err := NewBatchCGSolver(a, nrhs, opt)
	if err != nil {
		t.Fatal(err)
	}
	iters, err := bs.SolveBatch(xI, bI)
	if err != nil {
		t.Fatal(err)
	}
	if iters[0] != 0 {
		t.Fatalf("zero-RHS column took %d iterations, want 0", iters[0])
	}
	for i := 0; i < n; i++ {
		if xI[i*nrhs] != 0 {
			t.Fatalf("zero-RHS column x[%d] = %v, want 0", i, xI[i*nrhs])
		}
	}
	if iters[1] != 0 {
		t.Fatalf("pre-converged column took %d iterations, want 0", iters[1])
	}
	// Column 2 must match its looped solve bitwise despite the frozen peers.
	ss, err := NewCGSolver(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	itWant, err := ss.Solve(xCols[2], bCols[2])
	if err != nil {
		t.Fatal(err)
	}
	if iters[2] != itWant {
		t.Fatalf("hard column: %d iterations, looped %d", iters[2], itWant)
	}
	got := make([]float64, n)
	UnpackColumn(got, xI, 2, nrhs)
	for i := range got {
		if got[i] != xCols[2][i] {
			t.Fatalf("hard column x[%d] = %v, looped %v", i, got[i], xCols[2][i])
		}
	}
}

// TestSolveBatchZeroAlloc: the batch solve hot path allocates nothing,
// with modified and plain IC(0).
func TestSolveBatchZeroAlloc(t *testing.T) {
	const nrhs = 4
	for _, name := range []string{"mic", "default"} {
		a, xI, bI, _, _ := batchFixture(32, 32, nrhs, 40)
		bs, err := NewBatchCGSolver(a, nrhs, CGOptions{Tol: 1e-10, Precond: mkPre(t, a, name), Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bs.SolveBatch(xI, bI); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := bs.SolveBatch(xI, bI); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: SolveBatch allocates %v per run, want 0", name, allocs)
		}
	}
}

// TestPackUnpackColumn round-trips the interleaved layout.
func TestPackUnpackColumn(t *testing.T) {
	const n, m = 5, 3
	inter := make([]float64, n*m)
	for c := 0; c < m; c++ {
		col := make([]float64, n)
		for i := range col {
			col[i] = float64(10*c + i)
		}
		PackColumn(inter, col, c, m)
	}
	got := make([]float64, n)
	for c := 0; c < m; c++ {
		UnpackColumn(got, inter, c, m)
		for i := range got {
			if got[i] != float64(10*c+i) {
				t.Fatalf("col %d: got[%d] = %v, want %d", c, i, got[i], 10*c+i)
			}
		}
	}
}

// BenchmarkSolveBatch vs BenchmarkSolveLooped: the batched-vs-looped
// speedup pair — same 8 transient-style warm-started systems stepped
// through one matrix traversal vs eight.
const benchBatchNRHS = 8

func benchBatchSystems(b *testing.B) (*CSR, []float64, []float64) {
	a := gridLaplacianCSR(256, 256, 0.3)
	n := a.Rows()
	rng := rand.New(rand.NewSource(50))
	xI := make([]float64, n*benchBatchNRHS)
	bI := make([]float64, n*benchBatchNRHS)
	for i := range bI {
		bI[i] = rng.NormFloat64()
	}
	return a, xI, bI
}

func BenchmarkSolveBatch(b *testing.B) {
	a, xI, bI := benchBatchSystems(b)
	ic, err := NewICModified(a, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	bs, err := NewBatchCGSolver(a, benchBatchNRHS, CGOptions{Tol: 1e-10, Precond: ic})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range xI {
			xI[j] = 0
		}
		if _, err := bs.SolveBatch(xI, bI); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveLooped(b *testing.B) {
	a, xI, bI := benchBatchSystems(b)
	n := a.Rows()
	ic, err := NewICModified(a, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	ss, err := NewCGSolver(a, CGOptions{Tol: 1e-10, Precond: ic})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, n)
	rhs := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < benchBatchNRHS; c++ {
			UnpackColumn(rhs, bI, c, benchBatchNRHS)
			for j := range x {
				x[j] = 0
			}
			if _, err := ss.Solve(x, rhs); err != nil {
				b.Fatal(err)
			}
			PackColumn(xI, x, c, benchBatchNRHS)
		}
	}
}
