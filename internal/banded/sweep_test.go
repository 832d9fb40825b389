package banded

import (
	"math"
	"math/rand"
	"testing"

	"voltsense/internal/simd"
)

// same reports whether a and b have the same bits, counting any two NaNs
// as equal.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// interleave lays out columns as x[i*m+c] inside a slice that starts off
// at an odd offset of a larger buffer, so kernels see unaligned vectors.
func interleave(cols [][]float64, off int) []float64 {
	n, m := len(cols[0]), len(cols)
	buf := make([]float64, off+n*m+3)
	x := buf[off : off+n*m]
	for c, col := range cols {
		for i, v := range col {
			x[i*m+c] = v
		}
	}
	return x
}

// specialValue draws mostly normal values, with signed zeros, infinities
// and NaNs mixed in when wild is set.
func specialValue(rng *rand.Rand, wild bool) float64 {
	if wild {
		switch rng.Intn(12) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Inf(1)
		case 3:
			return math.Inf(-1)
		case 4:
			return math.NaN()
		}
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
}

// checkSolveCols solves m interleaved columns three ways — the dispatching
// SolveColsInPlace, the Go twin over every column, and, where the CPU has
// AVX2, the vector kernel on the first 4·⌊m/4⌋ columns with the twin on the
// rest — and requires all of them to equal SolveInPlace per column, bit for
// bit (any NaN matching any NaN).
func checkSolveCols(t *testing.T, f *CholFactor, cols [][]float64, off int, name string) {
	t.Helper()
	m := len(cols)
	want := make([][]float64, m)
	for c := range cols {
		want[c] = append([]float64(nil), cols[c]...)
		f.SolveInPlace(want[c])
	}
	check := func(how string, x []float64) {
		t.Helper()
		for c := range want {
			for i, w := range want[c] {
				if got := x[i*m+c]; !same(got, w) {
					t.Fatalf("%s %s: m=%d row %d column %d: got %v, SolveInPlace %v", name, how, m, i, c, got, w)
				}
			}
		}
	}
	x := interleave(cols, off)
	f.SolveColsInPlace(x, m)
	check("SolveColsInPlace", x)
	x = interleave(cols, off)
	f.solveColsGo(x, m, 0, m)
	check("Go twin", x)
	if nv := m / 4; nv > 0 && simd.AVX2() {
		x = interleave(cols, off)
		solveColsAVX2(f.data, f.rdiag, x, f.n, f.bw, m, nv)
		f.solveColsGo(x, m, 4*nv, m)
		check("AVX2 kernel", x)
	}
}

// TestSolveColsMatchesSolveInPlace: every column of the interleaved sweep
// equals its own SolveInPlace bitwise, for 1 to 13 columns, half-bandwidths
// 0, 1, 23 and n−1 (and a requested bandwidth above n, clamped), on
// ordinary, tiny and huge values and on signed zeros, infinities and NaNs,
// at aligned and odd offsets.
func TestSolveColsMatchesSolveInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	cases := []struct {
		name string
		s    *SymBanded
	}{
		{"n=1", randSPDBanded(rng, 1, 3)},
		{"n<bw", randSPDBanded(rng, 6, 9)},
		{"bw=0", randSPDBanded(rng, 9, 0)},
		{"bw=1", randSPDBanded(rng, 37, 1)},
		{"bw=n-1", randSPDBanded(rng, 11, 10)},
		{"bw=23", randSPDBanded(rng, 60, 23)},
		{"mesh 52x23", meshSystem(rng, 52, 23)},
	}
	for _, tc := range cases {
		f, err := Factor(tc.s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for m := 1; m <= 13; m++ {
			for _, wild := range []bool{false, true} {
				cols := make([][]float64, m)
				for c := range cols {
					cols[c] = make([]float64, tc.s.n)
					for i := range cols[c] {
						cols[c][i] = specialValue(rng, wild)
					}
				}
				for _, off := range []int{0, 1, 3} {
					checkSolveCols(t, f, cols, off, tc.name)
				}
			}
		}
	}
}

// TestSolveColsZeroPadStaysZero: zero columns beside live ones solve to
// exact (positive) zeros, which is what lets callers pad a block to the
// kernel's width.
func TestSolveColsZeroPadStaysZero(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	f, err := Factor(meshSystem(rng, 52, 23))
	if err != nil {
		t.Fatal(err)
	}
	n, m := 52*23, 8
	x := make([]float64, n*m)
	for i := 0; i < n; i++ {
		for c := 0; c < 5; c++ {
			x[i*m+c] = 1e3 * rng.NormFloat64()
		}
	}
	f.SolveColsInPlace(x, m)
	for i := 0; i < n; i++ {
		for c := 5; c < m; c++ {
			if math.Float64bits(x[i*m+c]) != 0 {
				t.Fatalf("pad column %d row %d = %v, want +0", c, i, x[i*m+c])
			}
		}
	}
}

// TestSolveColsZeroAllocs: the interleaved sweep allocates nothing.
func TestSolveColsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	f, err := Factor(meshSystem(rng, 52, 23))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 52*23*ColumnStride(19))
	if a := testing.AllocsPerRun(20, func() { f.SolveColsInPlace(x, ColumnStride(19)) }); a != 0 {
		t.Fatalf("SolveColsInPlace allocates %v times per run, want 0", a)
	}
}

// FuzzSolveCols drives the interleaved sweep over random shapes, column
// counts, offsets and values, special ones included, against SolveInPlace.
func FuzzSolveCols(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(5), uint8(7), uint8(1), false)
	f.Add(int64(2), uint8(3), uint8(9), uint8(4), uint8(0), true)
	f.Add(int64(3), uint8(100), uint8(23), uint8(13), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, n, bw, m, off uint8, wild bool) {
		if n == 0 || m == 0 || m > 24 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		s := randSPDBanded(rng, int(n), int(bw))
		fac, err := Factor(s)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([][]float64, m)
		for c := range cols {
			cols[c] = make([]float64, n)
			for i := range cols[c] {
				cols[c][i] = specialValue(rng, wild)
			}
		}
		checkSolveCols(t, fac, cols, int(off%4), "fuzz")
	})
}

// TestSolveColsConcurrentBlocks runs the Go twin the way a BatchSimulator
// runs the kernel, whose memory accesses the race detector cannot see:
// several goroutines sweep their own interleaved buffers through one
// shared factor at once. Under -race it checks that a sweep only reads the
// factor; every result must still equal SolveInPlace.
func TestSolveColsConcurrentBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	f, err := Factor(meshSystem(rng, 26, 12))
	if err != nil {
		t.Fatal(err)
	}
	const blocks, m = 3, 5
	cols := make([][][]float64, blocks)
	for b := range cols {
		cols[b] = make([][]float64, m)
		for c := range cols[b] {
			cols[b][c] = make([]float64, f.n)
			for i := range cols[b][c] {
				cols[b][c][i] = rng.NormFloat64()
			}
		}
	}
	xs := make([][]float64, blocks)
	done := make(chan int)
	for b := range xs {
		xs[b] = interleave(cols[b], 0)
		go func(b int) {
			f.solveColsGo(xs[b], m, 0, m)
			done <- b
		}(b)
	}
	for range xs {
		<-done
	}
	for b := range xs {
		for c, col := range cols[b] {
			want := append([]float64(nil), col...)
			f.SolveInPlace(want)
			for i, w := range want {
				if got := xs[b][i*m+c]; !same(got, w) {
					t.Fatalf("block %d column %d row %d: %v, SolveInPlace %v", b, c, i, got, w)
				}
			}
		}
	}
}
