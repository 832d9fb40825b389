package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"voltsense/internal/simd"
)

// PackColumn scatters the n-vector src into column c of the interleaved
// n×nrhs buffer dst.
func PackColumn(dst, src []float64, c, nrhs int) {
	for i, v := range src {
		dst[i*nrhs+c] = v
	}
}

// UnpackColumn gathers column c of the interleaved n×nrhs buffer src into
// the n-vector dst.
func UnpackColumn(dst, src []float64, c, nrhs int) {
	for i := range dst {
		dst[i] = src[i*nrhs+c]
	}
}

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

// cgWidths are the widths at which the batch solver's single-system
// behaviours are checked: one column alone, and one AVX2 vector beside a
// pair and a single column.
var cgWidths = []int{1, 7}

// solveColumns solves a·x_c = b[c] for every column c in one SolveBatch of
// width len(b), warm-started from x0[c] (x0 nil: from zero), and returns
// the solutions and the iteration counts.
func solveColumns(a *CSR, b, x0 [][]float64, opt CGOptions) ([][]float64, []int, error) {
	m, n := len(b), a.Rows()
	s, err := NewBatchCGSolver(a, m, opt)
	if err != nil {
		return nil, nil, err
	}
	xI, bI := make([]float64, n*m), make([]float64, n*m)
	for c := range b {
		PackColumn(bI, b[c], c, m)
		if x0 != nil {
			PackColumn(xI, x0[c], c, m)
		}
	}
	iters, err := s.SolveBatch(xI, bI)
	x := make([][]float64, m)
	for c := range x {
		x[c] = make([]float64, n)
		UnpackColumn(x[c], xI, c, m)
	}
	return x, iters, err
}

// mkPre builds the named preconditioner for a: "mic" is modified IC(0),
// "default" is nil, which both solvers turn into plain IC(0).
func mkPre(t *testing.T, a *CSR, name string) *IC {
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
// solutions and iteration counts as looping the serial oracle's Solve
// column by column, at every width from 1 to 13: widths below four run the kernels'
// pair and single columns alone, wider ones whole vectors beside every
// tail. Not a tolerance comparison: the operation orders are engineered to
// coincide.
func TestSolveBatchBitwiseMatchesLooped(t *testing.T) {
	for _, name := range []string{"mic", "default"} {
		for nrhs := 1; nrhs <= 13; nrhs++ {
			a, xI, bI, xCols, bCols := batchFixture(33, 27, nrhs, 12+int64(nrhs))
			opt := CGOptions{Tol: 1e-11, Precond: mkPre(t, a, name)}
			bs, err := NewBatchCGSolver(a, nrhs, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			iters, err := bs.SolveBatch(xI, bI)
			if err != nil {
				t.Fatalf("%s width %d: batch: %v", name, nrhs, err)
			}
			requireLooped(t, fmt.Sprintf("%s width %d", name, nrhs), a, opt, xI, iters, xCols, bCols, nil)
		}
	}
}

// requireLooped solves every column c of the per-column systems with the
// oracle CGSolver (cols nil means all of them) and requires the interleaved batch
// solution xI and its iteration counts to match bitwise.
func requireLooped(t *testing.T, what string, a *CSR, opt CGOptions, xI []float64, iters []int, xCols, bCols [][]float64, cols []int) {
	t.Helper()
	nrhs := len(xCols)
	if cols == nil {
		for c := 0; c < nrhs; c++ {
			cols = append(cols, c)
		}
	}
	ss, err := NewCGSolver(a, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, a.Rows())
	for _, c := range cols {
		itWant, err := ss.Solve(xCols[c], bCols[c])
		if err != nil {
			t.Fatalf("%s col %d: looped: %v", what, c, err)
		}
		if iters[c] != itWant {
			t.Fatalf("%s col %d: %d iterations, looped %d", what, c, iters[c], itWant)
		}
		UnpackColumn(got, xI, c, nrhs)
		for i := range got {
			if got[i] != xCols[c][i] {
				t.Fatalf("%s col %d: x[%d] = %v, looped %v (not bitwise identical)",
					what, c, i, got[i], xCols[c][i])
			}
		}
	}
}

// TestWithMatrixSharesWorkspace: a solver from WithMatrix works in its
// receiver's workspace, and the two, solving in turn, each match a solver
// built alone for their matrix bitwise: solutions and iteration counts, at
// widths 1 and 7. A matrix of another order panics.
func TestWithMatrixSharesWorkspace(t *testing.T) {
	for _, m := range cgWidths {
		a, xA, bA, _, _ := batchFixture(20, 18, m, 80)
		dc := gridLaplacianCSR(20, 18, 0.05)
		optA := CGOptions{Tol: 1e-11, Precond: mkPre(t, a, "mic")}
		optDC := CGOptions{Tol: 1e-12, Precond: mkPre(t, dc, "mic")}
		s, err := NewBatchCGSolver(a, m, optA)
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.WithMatrix(dc, optDC)
		if err != nil {
			t.Fatal(err)
		}
		if &d.r[0] != &s.r[0] || &d.iters[0] != &s.iters[0] {
			t.Fatalf("width %d: WithMatrix allocated its own workspace", m)
		}
		aloneA, err := NewBatchCGSolver(a, m, optA)
		if err != nil {
			t.Fatal(err)
		}
		aloneDC, err := NewBatchCGSolver(dc, m, optDC)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			for _, tc := range []struct {
				name        string
				shared, ref *BatchCGSolver
			}{{"receiver", s, aloneA}, {"derived", d, aloneDC}} {
				got, want := append([]float64(nil), xA...), append([]float64(nil), xA...)
				itGot, err := tc.shared.SolveBatch(got, bA)
				if err != nil {
					t.Fatal(err)
				}
				itGot = append([]int(nil), itGot...)
				itWant, err := tc.ref.SolveBatch(want, bA)
				if err != nil {
					t.Fatal(err)
				}
				for c := range itWant {
					if itGot[c] != itWant[c] {
						t.Fatalf("width %d round %d %s column %d: %d iterations, alone %d", m, round, tc.name, c, itGot[c], itWant[c])
					}
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("width %d round %d %s: x[%d] = %v, alone %v (not bitwise identical)", m, round, tc.name, i, got[i], want[i])
					}
				}
			}
		}
	}
	a := gridLaplacianCSR(6, 6, 0.3)
	s, err := NewBatchCGSolver(a, 2, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WithMatrix accepted a matrix of another order")
		}
	}()
	s.WithMatrix(gridLaplacianCSR(6, 5, 0.3), CGOptions{})
}

// TestSolveBatchInvariantUnderParallelism: batch solves are bitwise
// identical across worker counts too, at GOMAXPROCS 1 and 2, at a width of
// one vector and at one of two vectors and a pair.
func TestSolveBatchInvariantUnderParallelism(t *testing.T) {
	for _, nrhs := range []int{4, 10} {
		a, x0, bI, _, _ := batchFixture(splitNX, splitNY, nrhs, 21)
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
					requireBatchSplit(t, bs)
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
						t.Fatalf("width %d procs=%d workers=%d col %d: %d iterations, want %d", nrhs, procs, w, c, iters[c], refIt[c])
					}
				}
				for i := range ref {
					if xI[i] != ref[i] {
						t.Fatalf("width %d procs=%d workers=%d: x[%d] = %v, want %v (not bitwise identical)", nrhs, procs, w, i, xI[i], ref[i])
					}
				}
			}
		})
	}
}

// TestSolveBatchMixedConvergence: columns converging at different
// iterations freeze independently — zero right-hand sides and warm starts
// that are already converged ride along with hard columns without
// perturbing them. At width 7 the AVX2 kernels run columns 0–3 as a
// vector, 4–5 as a pair and 6 alone, so a zero RHS (columns 1 and 5) and a
// converged warm start (columns 2 and 6) sit inside a vector and in each
// part of the tail.
func TestSolveBatchMixedConvergence(t *testing.T) {
	const nrhs = 7
	a, xI, bI, xCols, bCols := batchFixture(25, 25, nrhs, 30)
	n := a.Rows()
	opt := CGOptions{Tol: 1e-11, Precond: mkPre(t, a, "mic")}
	for _, c := range []int{1, 5} {
		for i := 0; i < n; i++ {
			bI[i*nrhs+c] = 0
			bCols[c][i] = 0
		}
	}
	for _, c := range []int{2, 6} {
		exact, _, err := SolveCG(a, bCols[c], nil, CGOptions{Tol: 1e-14, Precond: mkPre(t, a, "mic")})
		if err != nil {
			t.Fatal(err)
		}
		copy(xCols[c], exact)
		PackColumn(xI, exact, c, nrhs)
	}
	bs, err := NewBatchCGSolver(a, nrhs, opt)
	if err != nil {
		t.Fatal(err)
	}
	iters, err := bs.SolveBatch(xI, bI)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{1, 5} {
		if iters[c] != 0 {
			t.Fatalf("zero-RHS column %d took %d iterations, want 0", c, iters[c])
		}
		for i := 0; i < n; i++ {
			if xI[i*nrhs+c] != 0 {
				t.Fatalf("zero-RHS column %d x[%d] = %v, want 0", c, i, xI[i*nrhs+c])
			}
		}
	}
	for _, c := range []int{2, 6} {
		if iters[c] != 0 {
			t.Fatalf("pre-converged column %d took %d iterations, want 0", c, iters[c])
		}
	}
	// Every column, the hard ones included, matches its looped solve
	// bitwise despite the frozen peers.
	requireLooped(t, "mixed", a, opt, xI, iters, xCols, bCols, nil)
}

// TestSolveBatchZeroAlloc: the batch solve hot path allocates nothing,
// with modified and plain IC(0), at a width of one vector and at one with
// every part of the kernels' tail.
func TestSolveBatchZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		nrhs int
	}{{"mic", 4}, {"default", 4}, {"mic", 7}} {
		name, nrhs := tc.name, tc.nrhs
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
// speedup pair — the same 8 systems solved through one width-8 solver, one
// matrix traversal per iteration for all of them, and column by column
// through one width-1 solver, one traversal per column.
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
	ss, err := NewBatchCGSolver(a, 1, CGOptions{Tol: 1e-10, Precond: ic})
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
			if _, err := ss.SolveBatch(x, rhs); err != nil {
				b.Fatal(err)
			}
			PackColumn(xI, x, c, benchBatchNRHS)
		}
	}
}

// scanBlockWidth is the wider of the two column blocks the critical-node
// scan's 19 benchmarks split into at two workers.
const scanBlockWidth = 10

// scanSystem is the 288×24 mesh system of the critical-node scan, RCM
// ordered as pdn orders it, with its modified IC factor and scanBlockWidth
// interleaved random columns.
func scanSystem(b *testing.B) (*CSR, *IC, []float64) {
	g := gridLaplacianCSR(288, 24, 0.05)
	a := PermuteSym(g, RCM(g))
	ic, err := NewICModified(a, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	cols := make([]float64, a.Rows()*scanBlockWidth)
	for i := range cols {
		cols[i] = rng.NormFloat64()
	}
	return a, ic, cols
}

// BenchmarkICBatchSweep vs BenchmarkICBatchSweepGo: one forward and one
// backward IC sweep of scanBlockWidth interleaved columns on the scan
// system, through the AVX2 kernels and through their Go twins. benchreport
// reports the kernels' speedup.
func BenchmarkICBatchSweep(b *testing.B) { benchICBatchSweep(b, true) }

func BenchmarkICBatchSweepGo(b *testing.B) { benchICBatchSweep(b, false) }

func benchICBatchSweep(b *testing.B, vec bool) {
	if vec && !simd.AVX2() {
		b.Skip("CPU lacks AVX2")
	}
	_, ic, r := scanSystem(b)
	z := make([]float64, len(r))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic.applyBatch(z, r, scanBlockWidth, vec)
	}
}

// BenchmarkBatchSpMV vs BenchmarkBatchSpMVGo: the batch solver's
// interleaved SpMV of scanBlockWidth columns on the scan system, row
// shares on the pool default, through the AVX2 kernel and its Go twin.
func BenchmarkBatchSpMV(b *testing.B) { benchBatchSpMV(b, true) }

func BenchmarkBatchSpMVGo(b *testing.B) { benchBatchSpMV(b, false) }

func benchBatchSpMV(b *testing.B, vec bool) {
	if vec && !simd.AVX2() {
		b.Skip("CPU lacks AVX2")
	}
	a, ic, x := scanSystem(b)
	bs, err := NewBatchCGSolver(a, scanBlockWidth, CGOptions{Precond: ic})
	if err != nil {
		b.Fatal(err)
	}
	bs.vec = vec
	y := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.bMulVec(y, x)
	}
}

// BenchmarkSolveBatchScan vs BenchmarkSolveBatchScanGo: one cold
// SolveBatch of scanBlockWidth columns on the scan system at the transient
// step's tolerance, kernels on the pool default, through the AVX2 kernels
// and through their Go twins.
func BenchmarkSolveBatchScan(b *testing.B) { benchSolveBatchScan(b, true) }

func BenchmarkSolveBatchScanGo(b *testing.B) { benchSolveBatchScan(b, false) }

func benchSolveBatchScan(b *testing.B, vec bool) {
	if vec && !simd.AVX2() {
		b.Skip("CPU lacks AVX2")
	}
	a, ic, rhs := scanSystem(b)
	bs, err := NewBatchCGSolver(a, scanBlockWidth, CGOptions{Tol: 1e-13, Precond: ic})
	if err != nil {
		b.Fatal(err)
	}
	bs.vec = vec
	x := make([]float64, len(rhs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		if _, err := bs.SolveBatch(x, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSolveBatchConcurrentBlocksGo: two batch solvers that share one
// matrix and one IC factor, as the column blocks of a pdn BatchSimulator
// do, solve at the same time on the Go twins, which the race detector can
// see (it cannot see into the assembly kernels), and each matches its
// serial solve bitwise.
func TestSolveBatchConcurrentBlocksGo(t *testing.T) {
	widths := []int{3, 6}
	a := gridLaplacianCSR(40, 30, 0.3)
	n := a.Rows()
	ic := mkPre(t, a, "mic")
	opt := CGOptions{Tol: 1e-11, Precond: ic, Workers: 2}
	want := make([][]float64, len(widths))
	got := make([][]float64, len(widths))
	rhs := make([][]float64, len(widths))
	solvers := make([]*BatchCGSolver, len(widths))
	for k, m := range widths {
		rng := rand.New(rand.NewSource(60 + int64(k)))
		rhs[k] = make([]float64, n*m)
		for i := range rhs[k] {
			rhs[k][i] = rng.NormFloat64()
		}
		bs, err := NewBatchCGSolver(a, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = make([]float64, n*m)
		if _, err := bs.SolveBatch(want[k], rhs[k]); err != nil {
			t.Fatal(err)
		}
		bs.vec = false
		solvers[k] = bs
		got[k] = make([]float64, n*m)
	}
	errs := make(chan error, len(widths))
	for k, bs := range solvers {
		go func() {
			_, err := bs.SolveBatch(got[k], rhs[k])
			errs <- err
		}()
	}
	for range solvers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for k := range widths {
		for i := range want[k] {
			if got[k][i] != want[k][i] {
				t.Fatalf("block %d: x[%d] = %v, serial %v (not bitwise identical)", k, i, got[k][i], want[k][i])
			}
		}
	}
}

// TestSparseSolveRejectsNonFiniteInput: in a width-1 solve, a NaN or an
// infinity in the right-hand side or in the warm start fails at iteration
// 0 with errNotFinite and leaves the warm start as it was. Unchecked, a NaN
// spends the whole budget of 10·n iterations and ends in
// ErrNoConvergence, and a +Inf right-hand side passes the tolerance test
// at once, returning the warm start as the solution with a nil error.
func TestSparseSolveRejectsNonFiniteInput(t *testing.T) {
	a := gridLaplacianCSR(40, 40, 0.3)
	n := a.Rows()
	s, err := NewBatchCGSolver(a, 1, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		inB  bool
		v    float64
	}{
		{"NaN in b", true, math.NaN()},
		{"+Inf in b", true, math.Inf(1)},
		{"-Inf in b", true, math.Inf(-1)},
		{"NaN in warm start", false, math.NaN()},
		{"+Inf in warm start", false, math.Inf(1)},
	} {
		rng := rand.New(rand.NewSource(70))
		b, x := make([]float64, n), make([]float64, n)
		for i := range b {
			b[i], x[i] = rng.NormFloat64(), 0.05*rng.NormFloat64()
		}
		if tc.inB {
			b[n/2] = tc.v
		} else {
			x[n/2] = tc.v
		}
		x0 := append([]float64(nil), x...)
		iters, err := s.SolveBatch(x, b)
		if !errors.Is(err, errNotFinite) || iters[0] != 0 {
			t.Fatalf("%s: %d iterations, error %v; want 0 and %v", tc.name, iters[0], err, errNotFinite)
		}
		for i := range x {
			if !same(x[i], x0[i]) {
				t.Fatalf("%s: warm start x[%d] changed from %v to %v", tc.name, i, x0[i], x[i])
			}
		}
	}
}

// TestSolveBatchFreezesNonFiniteColumns: in a batch of 6, whose kernels run
// columns 0–3 as a vector and 4–5 as a pair, a NaN right-hand side (column
// 1), a +Inf right-hand side (column 4) and a NaN warm start (column 5)
// each stop at iteration 0 with their warm starts as they were, SolveBatch
// reports errNotFinite, and the other columns match their looped solves
// bitwise.
func TestSolveBatchFreezesNonFiniteColumns(t *testing.T) {
	const nrhs = 6
	a, xI, bI, xCols, bCols := batchFixture(40, 40, nrhs, 71)
	n := a.Rows()
	bI[(n/2)*nrhs+1] = math.NaN()
	bI[(n/3)*nrhs+4] = math.Inf(1)
	xI[(n/4)*nrhs+5] = math.NaN()
	x0 := append([]float64(nil), xI...)
	opt := CGOptions{Tol: 1e-11, Precond: mkPre(t, a, "mic")}
	bs, err := NewBatchCGSolver(a, nrhs, opt)
	if err != nil {
		t.Fatal(err)
	}
	iters, err := bs.SolveBatch(xI, bI)
	if !errors.Is(err, errNotFinite) {
		t.Fatalf("SolveBatch error %v, want %v", err, errNotFinite)
	}
	for _, c := range []int{1, 4, 5} {
		if iters[c] != 0 {
			t.Fatalf("non-finite column %d took %d iterations, want 0", c, iters[c])
		}
		for i := 0; i < n; i++ {
			if k := i*nrhs + c; !same(xI[k], x0[k]) {
				t.Fatalf("non-finite column %d: x[%d] changed from %v to %v", c, i, x0[k], xI[k])
			}
		}
	}
	requireLooped(t, "finite", a, opt, xI, iters, xCols, bCols, []int{0, 2, 3})
}
