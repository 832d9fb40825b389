package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// Triplet accumulates (i, j, v) entries for building a CSR matrix. Duplicate
// coordinates are summed, which makes circuit-style stamping natural.
type Triplet struct {
	rows, cols int
	i, j       []int
	v          []float64
}

// NewTriplet returns an empty accumulator for an r-by-c matrix.
func NewTriplet(r, c int) *Triplet {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", r, c))
	}
	return &Triplet{rows: r, cols: c}
}

// Add accumulates v at (i, j).
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.rows || j < 0 || j >= t.cols {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of range %dx%d", i, j, t.rows, t.cols))
	}
	t.i = append(t.i, i)
	t.j = append(t.j, j)
	t.v = append(t.v, v)
}

// ToCSR compacts the accumulated triplets into a CSR matrix, summing
// duplicates and dropping exact zeros. The build is a two-pass counting
// sort — stable by column, then by row — followed by a linear merge of
// adjacent duplicates: O(nnz + rows + cols) with no map and no comparison
// sort, which is what keeps assembly linear at million-node grids.
func (t *Triplet) ToCSR() *CSR {
	nnz := len(t.v)
	// Pass 1: stable counting sort by column.
	count := make([]int, maxInt(t.cols, t.rows)+1)
	for _, j := range t.j {
		count[j+1]++
	}
	for j := 0; j < t.cols; j++ {
		count[j+1] += count[j]
	}
	bi := make([]int, nnz)
	bj := make([]int, nnz)
	bv := make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		p := count[t.j[k]]
		count[t.j[k]]++
		bi[p], bj[p], bv[p] = t.i[k], t.j[k], t.v[k]
	}
	// Pass 2: stable counting sort by row. Stability preserves the column
	// order within each row, so the result is sorted by (row, col).
	for i := range count[:t.rows+1] {
		count[i] = 0
	}
	for _, i := range bi {
		count[i+1]++
	}
	for i := 0; i < t.rows; i++ {
		count[i+1] += count[i]
	}
	ci := make([]int, nnz)
	cj := make([]int, nnz)
	cv := make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		p := count[bi[k]]
		count[bi[k]]++
		ci[p], cj[p], cv[p] = bi[k], bj[k], bv[k]
	}
	// Merge adjacent duplicates and drop exact zeros while building the CSR.
	c := &CSR{rows: t.rows, cols: t.cols, rowPtr: make([]int, t.rows+1)}
	for k := 0; k < nnz; {
		i, j, v := ci[k], cj[k], cv[k]
		for k++; k < nnz && ci[k] == i && cj[k] == j; k++ {
			v += cv[k]
		}
		if v != 0 {
			c.rowPtr[i+1]++
			c.colIdx = append(c.colIdx, j)
			c.val = append(c.val, v)
		}
	}
	for i := 0; i < t.rows; i++ {
		c.rowPtr[i+1] += c.rowPtr[i]
	}
	return c
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NNZ returns the number of stored nonzeros.
func (c *CSR) NNZ() int { return len(c.val) }

// At returns element (i, j) with a binary search over row i.
func (c *CSR) At(i, j int) float64 {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of range %dx%d", i, j, c.rows, c.cols))
	}
	lo, hi := c.rowPtr[i], c.rowPtr[i+1]
	k := lo + sort.SearchInts(c.colIdx[lo:hi], j)
	if k < hi && c.colIdx[k] == j {
		return c.val[k]
	}
	return 0
}

// MulVec returns c * x.
func (c *CSR) MulVec(x []float64) []float64 {
	y := make([]float64, c.rows)
	c.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = c * x without allocating.
func (c *CSR) MulVecTo(y, x []float64) {
	if len(x) != c.cols || len(y) != c.rows {
		panic(fmt.Sprintf("sparse: MulVecTo shapes y=%d x=%d, want %d/%d", len(y), len(x), c.rows, c.cols))
	}
	for i := 0; i < c.rows; i++ {
		s := 0.0
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			s += c.val[k] * x[c.colIdx[k]]
		}
		y[i] = s
	}
}

// Identity is the no-op preconditioner (plain CG).
type Identity struct{}

// Apply copies r into z.
func (Identity) Apply(z, r []float64) { copy(z, r) }

// gridLaplacian builds the SPD matrix of a w-by-h resistive grid with a
// small conductance to ground at every node (so it is nonsingular).
func gridLaplacian(w, h int, gGround float64) *CSR {
	n := w * h
	t := NewTriplet(n, n)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := id(x, y)
			t.Add(i, i, gGround)
			if x+1 < w {
				j := id(x+1, y)
				t.Add(i, i, 1)
				t.Add(j, j, 1)
				t.Add(i, j, -1)
				t.Add(j, i, -1)
			}
			if y+1 < h {
				j := id(x, y+1)
				t.Add(i, i, 1)
				t.Add(j, j, 1)
				t.Add(i, j, -1)
				t.Add(j, i, -1)
			}
		}
	}
	return t.ToCSR()
}

func TestTripletSumsDuplicates(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Add(0, 1, 1.5)
	tr.Add(0, 1, 2.5)
	tr.Add(1, 0, -1)
	tr.Add(1, 0, 1) // cancels to zero → dropped
	c := tr.ToCSR()
	if got := c.At(0, 1); got != 4 {
		t.Fatalf("At(0,1) = %v, want 4", got)
	}
	if got := c.At(1, 0); got != 0 {
		t.Fatalf("At(1,0) = %v, want 0", got)
	}
	if c.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (zero dropped)", c.NNZ())
	}
}

func TestTripletOutOfRangePanics(t *testing.T) {
	tr := NewTriplet(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Add(2, 0, 1)
}

func TestCSRAtAndMulVec(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Add(0, 0, 2)
	tr.Add(0, 2, 1)
	tr.Add(1, 1, 3)
	tr.Add(2, 0, 4)
	c := tr.ToCSR()
	y := c.MulVec([]float64{1, 2, 3})
	want := []float64{5, 6, 4}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-15 {
			t.Fatalf("MulVec = %v, want %v", y, want)
		}
	}
	if c.At(2, 2) != 0 {
		t.Fatal("missing entry should read 0")
	}
}

// Property: at widths 1 and 7 the batch PCG solves random grid Laplacian
// systems to tight tolerance.
func TestCGGridSystems(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 2 + rng.Intn(8)
		h := 2 + rng.Intn(8)
		a := gridLaplacian(w, h, 0.5)
		n := w * h
		for _, m := range cgWidths {
			xStar := make([][]float64, m)
			b := make([][]float64, m)
			for c := range xStar {
				xStar[c] = make([]float64, n)
				for i := range xStar[c] {
					xStar[c][i] = rng.NormFloat64()
				}
				b[c] = a.MulVec(xStar[c])
			}
			x, _, err := solveColumns(a, b, nil, CGOptions{Tol: 1e-12})
			if err != nil {
				return false
			}
			for c := range x {
				for i := range x[c] {
					if math.Abs(x[c][i]-xStar[c][i]) > 1e-6 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCGWarmStartConverges: at widths 1 and 7, every column warm-started
// from its cold solution converges in fewer iterations than it took cold.
func TestCGWarmStartConverges(t *testing.T) {
	a := gridLaplacian(10, 10, 1)
	for _, m := range cgWidths {
		b := make([][]float64, m)
		for c := range b {
			b[c] = make([]float64, 100)
			for i := range b[c] {
				b[c][i] = float64(i%5 + c)
			}
		}
		xCold, itCold, err := solveColumns(a, b, nil, CGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, itWarm, err := solveColumns(a, b, xCold, CGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for c := range b {
			if itWarm[c] >= itCold[c] {
				t.Errorf("width %d column %d: warm start took %d iters, cold took %d", m, c, itWarm[c], itCold[c])
			}
		}
	}
}

// TestCGZeroRHS: at widths 1 and 7, a zero right-hand side takes no
// iteration and returns a zero solution whatever the warm start.
func TestCGZeroRHS(t *testing.T) {
	a := gridLaplacian(4, 4, 1)
	for _, m := range cgWidths {
		b, x0 := make([][]float64, m), make([][]float64, m)
		for c := range b {
			b[c], x0[c] = make([]float64, 16), make([]float64, 16)
			for i := range x0[c] {
				x0[c][i] = float64(c + 1)
			}
		}
		x, iters, err := solveColumns(a, b, x0, CGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for c := range x {
			if iters[c] != 0 {
				t.Errorf("width %d column %d: zero rhs took %d iterations", m, c, iters[c])
			}
			for _, v := range x[c] {
				if v != 0 {
					t.Fatalf("width %d column %d: zero rhs must give zero solution", m, c)
				}
			}
		}
	}
}

// TestCGRejectsNonSPDDiag: at widths 1 and 7, a matrix with a negative
// diagonal fails plain IC(0) at construction, and given another matrix's
// factor the solve stops on pᵀAp <= 0.
func TestCGRejectsNonSPDDiag(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Add(0, 0, -1)
	tr.Add(1, 1, 1)
	a := tr.ToCSR()
	id := NewTriplet(2, 2)
	id.Add(0, 0, 1)
	id.Add(1, 1, 1)
	ic, err := NewIC(id.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cgWidths {
		if _, err := NewBatchCGSolver(a, m, CGOptions{}); err == nil {
			t.Fatalf("width %d: expected error for negative diagonal", m)
		}
		b := make([][]float64, m)
		for c := range b {
			b[c] = []float64{2, 1}
		}
		if _, _, err := solveColumns(a, b, nil, CGOptions{Precond: ic}); err == nil || !strings.Contains(err.Error(), "not SPD") {
			t.Fatalf("width %d: error %v, want pᵀAp <= 0", m, err)
		}
	}
}

// TestCGIterationBudget: at widths 1 and 7, a solve cut off by MaxIter
// reports ErrNoConvergence with every column at the cap.
func TestCGIterationBudget(t *testing.T) {
	a := gridLaplacian(12, 12, 0.001) // poorly conditioned
	for _, m := range cgWidths {
		b := make([][]float64, m)
		for c := range b {
			b[c] = make([]float64, 144)
			b[c][3*c] = 1
		}
		_, iters, err := solveColumns(a, b, nil, CGOptions{Tol: 1e-14, MaxIter: 2})
		if !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("width %d: error %v, want ErrNoConvergence with MaxIter=2", m, err)
		}
		for c, it := range iters {
			if it != 2 {
				t.Fatalf("width %d column %d: %d iterations, want the cap of 2", m, c, it)
			}
		}
	}
}
