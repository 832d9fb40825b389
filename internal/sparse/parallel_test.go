package sparse

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// workerCounts are the parallelism settings every invariance test sweeps:
// serial, two shares, and the machine default when it is larger. The
// engine's contract is bitwise-identical results across all of them.
func workerCounts() []int {
	if p := runtime.GOMAXPROCS(0); p > 2 {
		return []int{1, 2, p}
	}
	return []int{1, 2}
}

// refToCSR is the original map+sort Triplet build, kept verbatim as the
// golden reference for the counting-sort rewrite: accumulate duplicates in
// a map, drop zeros, emit rows with sorted columns.
func refToCSR(t *Triplet) *CSR {
	type key struct{ i, j int }
	acc := make(map[key]float64, len(t.v))
	for k := range t.v {
		acc[key{t.i[k], t.j[k]}] += t.v[k]
	}
	c := &CSR{rows: t.rows, cols: t.cols, rowPtr: make([]int, t.rows+1)}
	perRow := make([][]int, t.rows)
	for k, v := range acc {
		if v != 0 {
			perRow[k.i] = append(perRow[k.i], k.j)
		}
	}
	for i := 0; i < t.rows; i++ {
		sort.Ints(perRow[i])
		for _, j := range perRow[i] {
			c.colIdx = append(c.colIdx, j)
			c.val = append(c.val, acc[key{i, j}])
		}
		c.rowPtr[i+1] = len(c.colIdx)
	}
	return c
}

// TestToCSRMatchesReference: the two-pass counting-sort build produces the
// same structure as the map+sort reference on random triplet streams heavy
// with duplicates and exact zero cancellations.
//
// The one intended difference is duplicate summation order: the counting
// sort sums duplicates in insertion order, the map reference accumulates in
// the same insertion order too (map value += is order-preserving per key),
// so even values match bitwise.
func TestToCSRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(12)
		cols := 1 + rng.Intn(12)
		tr := NewTriplet(rows, cols)
		nAdd := rng.Intn(80)
		for k := 0; k < nAdd; k++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			v := float64(rng.Intn(7) - 3) // integer values so cancellation is exact
			tr.Add(i, j, v)
			if rng.Intn(3) == 0 {
				tr.Add(i, j, -v) // force exact zero-sum duplicates
			}
		}
		got := tr.ToCSR()
		want := refToCSR(tr)
		if got.rows != want.rows || got.cols != want.cols || got.NNZ() != want.NNZ() {
			t.Fatalf("trial %d: shape/nnz %dx%d/%d, want %dx%d/%d",
				trial, got.rows, got.cols, got.NNZ(), want.rows, want.cols, want.NNZ())
		}
		for i := 0; i <= rows; i++ {
			if got.rowPtr[i] != want.rowPtr[i] {
				t.Fatalf("trial %d: rowPtr[%d] = %d, want %d", trial, i, got.rowPtr[i], want.rowPtr[i])
			}
		}
		for k := range want.val {
			if got.colIdx[k] != want.colIdx[k] || got.val[k] != want.val[k] {
				t.Fatalf("trial %d: entry %d = (%d, %v), want (%d, %v)",
					trial, k, got.colIdx[k], got.val[k], want.colIdx[k], want.val[k])
			}
		}
	}
}

// TestToCSREmptyAndAllZero: degenerate inputs — no entries, and entries
// that all cancel — produce valid empty matrices.
func TestToCSREmptyAndAllZero(t *testing.T) {
	c := NewTriplet(3, 4).ToCSR()
	if c.NNZ() != 0 || c.Rows() != 3 || c.Cols() != 4 {
		t.Fatalf("empty: nnz=%d shape=%dx%d", c.NNZ(), c.Rows(), c.Cols())
	}
	tr := NewTriplet(2, 2)
	tr.Add(1, 1, 5)
	tr.Add(1, 1, -5)
	c = tr.ToCSR()
	if c.NNZ() != 0 {
		t.Fatalf("all-zero: nnz=%d, want 0", c.NNZ())
	}
	if got := c.At(1, 1); got != 0 {
		t.Fatalf("all-zero: At(1,1)=%v", got)
	}
}

// splitNX × splitNY sizes the worker-invariance fixtures: 28,891 rows,
// past the 28,672 (seven dot blocks) above which the blocked reduction
// splits into two shares, so SpMV, dot and the vector kernels all really
// run in parallel at Workers: 2.
const splitNX, splitNY = 173, 167

// atProcs runs fn at GOMAXPROCS 1 and then 2, restoring the old value.
func atProcs(fn func()) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		fn()
	}
}

// requireSplit fails unless tm runs items at minChunk granularity as at
// least two shares.
func requireSplit(t *testing.T, tm *team, items, minChunk int) {
	t.Helper()
	if p := tm.shares(items, minChunk); p < 2 {
		t.Fatalf("%d items at chunk %d run as %d share(s); fixture too small to test parallelism", items, minChunk, p)
	}
}

// requireBatchSplit fails unless the SpMV, the dots and the vector updates
// of bs run as at least two shares.
func requireBatchSplit(t *testing.T, bs *BatchCGSolver) {
	t.Helper()
	requireSplit(t, &bs.t, bs.n, max(rowChunk/bs.m, 1))
	requireSplit(t, &bs.t, numDotBlocks(bs.n), dotBlockChunk)
	requireSplit(t, &bs.t, bs.n, bs.batchRowChunk())
}

// interleavedColumns returns m random n-vectors and their interleaved n×m
// buffer.
func interleavedColumns(rng *rand.Rand, n, m int) ([][]float64, []float64) {
	cols := make([][]float64, m)
	inter := make([]float64, n*m)
	for c := range cols {
		cols[c] = make([]float64, n)
		for i := range cols[c] {
			cols[c][i] = rng.NormFloat64()
		}
		PackColumn(inter, cols[c], c, m)
	}
	return cols, inter
}

// TestSpMVDeterministicAcrossWorkerCounts: at widths 1 and 7 the batch
// solver's parallel SpMV gives every column the bits of the serial
// MulVecTo at every worker count, at GOMAXPROCS 1 and 2.
func TestSpMVDeterministicAcrossWorkerCounts(t *testing.T) {
	a := gridLaplacianCSR(splitNX, splitNY, 0.3)
	n := a.Rows()
	ic, err := NewIC(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, m := range cgWidths {
		cols, x := interleavedColumns(rng, n, m)
		want := make([]float64, n*m)
		col := make([]float64, n)
		for c := range cols {
			a.MulVecTo(col, cols[c])
			PackColumn(want, col, c, m)
		}
		atProcs(func() {
			for _, w := range workerCounts() {
				bs, err := NewBatchCGSolver(a, m, CGOptions{Precond: ic, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if w == 2 {
					requireBatchSplit(t, bs)
				}
				got := make([]float64, n*m)
				bs.bMulVec(got, x)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("width %d procs=%d workers=%d: y[%d] = %v, want %v (not bitwise identical)",
							m, runtime.GOMAXPROCS(0), w, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// diagCSR returns the n×n identity as a CSR matrix.
func diagCSR(n int) *CSR {
	rowPtr, colIdx, val := make([]int, n+1), make([]int, n), make([]float64, n)
	for i := range colIdx {
		rowPtr[i+1], colIdx[i], val[i] = i+1, i, 1
	}
	return NewCSR(n, n, rowPtr, colIdx, val)
}

// TestDotDeterministicAcrossWorkerCounts: at widths 1 and 7 the blocked
// reduction gives every column the oracle's serial blocked dot product at
// every worker count.
func TestDotDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, dotBlock - 1, dotBlock, 3*dotBlock + 17, 50000} {
		a := diagCSR(n)
		for _, m := range cgWidths {
			xs, x := interleavedColumns(rng, n, m)
			ys, y := interleavedColumns(rng, n, m)
			got := make([]float64, m)
			for _, w := range workerCounts() {
				bs, err := NewBatchCGSolver(a, m, CGOptions{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				bs.bDot(x, y, got)
				for c := range got {
					if want := blockedDot(xs[c], ys[c]); got[c] != want {
						t.Fatalf("n=%d width %d workers=%d column %d: dot = %v, want %v (not bitwise identical)", n, m, w, c, got[c], want)
					}
				}
			}
		}
	}
}

// TestCGInvariantUnderParallelism: at widths 1 and 7, full PCG solves
// return bitwise-identical solutions and iteration counts at every worker
// count, at GOMAXPROCS 1 and 2.
func TestCGInvariantUnderParallelism(t *testing.T) {
	a := gridLaplacianCSR(splitNX, splitNY, 0.2)
	n := a.Rows()
	rng := rand.New(rand.NewSource(3))
	ic, err := NewICModified(a, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cgWidths {
		_, b := interleavedColumns(rng, n, m)
		_, x0 := interleavedColumns(rng, n, m)
		for i := range x0 {
			x0[i] *= 0.1 // nontrivial warm start
		}
		var refX []float64
		var refIt []int
		atProcs(func() {
			procs := runtime.GOMAXPROCS(0)
			for _, w := range workerCounts() {
				s, err := NewBatchCGSolver(a, m, CGOptions{Tol: 1e-11, Precond: ic, Workers: w})
				if err != nil {
					t.Fatalf("width %d procs=%d workers=%d: %v", m, procs, w, err)
				}
				if w == 2 {
					requireBatchSplit(t, s)
				}
				x := append([]float64(nil), x0...)
				iters, err := s.SolveBatch(x, b)
				if err != nil {
					t.Fatalf("width %d procs=%d workers=%d: %v", m, procs, w, err)
				}
				if refX == nil {
					refX, refIt = x, append([]int(nil), iters...)
					continue
				}
				for c := range refIt {
					if iters[c] != refIt[c] {
						t.Fatalf("width %d procs=%d workers=%d column %d: %d iterations, want %d", m, procs, w, c, iters[c], refIt[c])
					}
				}
				for i := range x {
					if x[i] != refX[i] {
						t.Fatalf("width %d procs=%d workers=%d: x[%d] = %v, want %v (not bitwise identical)", m, procs, w, i, x[i], refX[i])
					}
				}
			}
		})
	}
}

// TestCGSolverZeroAllocParallel: at widths 1 and 7 the parallel solve
// path, with every kernel split across two shares, allocates nothing in
// steady state.
func TestCGSolverZeroAllocParallel(t *testing.T) {
	a := gridLaplacianCSR(splitNX, splitNY, 0.3)
	n := a.Rows()
	ic, err := NewICModified(a, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cgWidths {
		s, err := NewBatchCGSolver(a, m, CGOptions{Tol: 1e-10, Precond: ic, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		requireBatchSplit(t, s)
		b := make([]float64, n*m)
		x := make([]float64, n*m)
		for i := range b {
			b[i] = 1
		}
		if _, err := s.SolveBatch(x, b); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			for i := range x {
				x[i] = 0 // a cold start, so every stage runs
			}
			if _, err := s.SolveBatch(x, b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("width %d: SolveBatch allocates %v per run, want 0", m, allocs)
		}
	}
}
