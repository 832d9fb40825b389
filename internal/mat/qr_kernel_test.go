package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"voltsense/internal/simd"
)

// sameBits reports whether a and b have the same bits, counting any two
// NaNs as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// qrValue draws mostly normal values, exact zeros often (so reflectors and
// taus have zeros to skip) and, when wild is set, signed zeros, infinities
// and NaNs.
func qrValue(rng *rand.Rand, wild bool) float64 {
	switch r := rng.Intn(16); {
	case r < 3:
		return 0
	case wild && r == 3:
		return math.Copysign(0, -1)
	case wild && r == 4:
		return math.Inf(1 - 2*rng.Intn(2))
	case wild && r == 5:
		return math.NaN()
	}
	return rng.NormFloat64()
}

// checkApplyQT4 applies the reflectors of f to four rows with applyQT4 and
// with the AVX2 kernel on the rows interleaved at an offset, and requires
// every element to match bitwise.
func checkApplyQT4(t *testing.T, f *QR, rows [][]float64, off int, what string) {
	t.Helper()
	m := len(rows[0])
	want := make([][]float64, 4)
	for c := range want {
		want[c] = append([]float64(nil), rows[c]...)
	}
	f.applyQT4(want[0], want[1], want[2], want[3])
	buf := make([]float64, off+4*m+3)
	w := buf[off : off+4*m]
	for c, row := range rows {
		for k, x := range row {
			w[4*k+c] = x
		}
	}
	applyQT4AVX2(f.v.data, f.tau, w)
	for c := range want {
		for k, x := range want[c] {
			if !sameBits(w[4*k+c], x) {
				t.Fatalf("%s: row %d element %d is %v, applyQT4 %v", what, c, k, w[4*k+c], x)
			}
		}
	}
}

// TestApplyQT4KernelMatchesGo: the AVX2 sweep of four interleaved
// right-hand sides equals applyQT4 bitwise, on factored designs with
// zero columns and sparse reflectors, and on arbitrary reflector sets with
// zero taus, signed zeros, infinities and NaNs, at odd offsets.
func TestApplyQT4KernelMatchesGo(t *testing.T) {
	if !simd.AVX2() {
		t.Skip("CPU lacks AVX2")
	}
	rng := rand.New(rand.NewSource(81))
	for _, shape := range [][2]int{{1, 1}, {1, 5}, {3, 3}, {4, 9}, {6, 40}, {13, 13}, {16, 300}} {
		n, m := shape[0], shape[1]
		for _, wild := range []bool{false, true} {
			var f *QR
			if wild {
				v := Zeros(n, m)
				for i := range v.data {
					v.data[i] = qrValue(rng, true)
				}
				tau := make([]float64, n)
				for i := range tau {
					tau[i] = qrValue(rng, true)
				}
				f = &QR{v: v, tau: tau}
			} else {
				cols := Zeros(n, m)
				for i := range cols.data {
					cols.data[i] = qrValue(rng, false)
				}
				if n > 1 {
					for k := 0; k < m; k++ {
						cols.data[(n/2)*m+k] = 0 // a column needing no reflector
					}
				}
				f = FactorQRColumns(cols)
			}
			rows := make([][]float64, 4)
			for c := range rows {
				rows[c] = make([]float64, m)
				for k := range rows[c] {
					rows[c][k] = qrValue(rng, wild)
				}
			}
			for _, off := range []int{0, 1, 3} {
				checkApplyQT4(t, f, rows, off, fmt.Sprintf("n=%d m=%d wild=%v off=%d", n, m, wild, off))
			}
		}
	}
}

// TestApplyQTRowsMatchesApplyQT1: the dispatching row sweep, whatever path
// it takes for each group of four, equals applyQT1 row by row, for row
// counts that leave 0–3 rows over.
func TestApplyQTRowsMatchesApplyQT1(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	cols := Zeros(7, 50)
	for i := range cols.data {
		cols.data[i] = qrValue(rng, false)
	}
	f := FactorQRColumns(cols)
	for rows := 1; rows <= 11; rows++ {
		b := Zeros(rows, 50)
		for i := range b.data {
			b.data[i] = qrValue(rng, false)
		}
		want := b.Clone()
		for i := 0; i < rows; i++ {
			f.applyQT1(want.Row(i))
		}
		f.applyQTRows(b, 0, rows)
		for i, x := range want.data {
			if !sameBits(b.data[i], x) {
				t.Fatalf("%d rows: element %d is %v, applyQT1 %v", rows, i, b.data[i], x)
			}
		}
	}
}

// FuzzApplyQT4 drives the AVX2 reflector sweep over random shapes, sparse
// and special values against applyQT4.
func FuzzApplyQT4(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(30), uint8(1), false)
	f.Add(int64(2), uint8(1), uint8(1), uint8(0), true)
	f.Add(int64(3), uint8(12), uint8(12), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, n, m, off uint8, wild bool) {
		if !simd.AVX2() {
			t.Skip("CPU lacks AVX2")
		}
		if n == 0 || m < n {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		v := Zeros(int(n), int(m))
		for i := range v.data {
			v.data[i] = qrValue(rng, wild)
		}
		tau := make([]float64, n)
		for i := range tau {
			tau[i] = qrValue(rng, wild)
		}
		rows := make([][]float64, 4)
		for c := range rows {
			rows[c] = make([]float64, m)
			for k := range rows[c] {
				rows[c][k] = qrValue(rng, wild)
			}
		}
		checkApplyQT4(t, &QR{v: v, tau: tau}, rows, int(off%4), "fuzz")
	})
}

// TestApplyQT4ConcurrentRows runs the Go twin the way ApplyQT's row split
// runs the kernel, whose memory accesses the race detector cannot see:
// goroutines sweep disjoint groups of rows through one shared
// factorization at once. Under -race it checks that a sweep only reads the
// reflectors; every row must equal applyQT1.
func TestApplyQT4ConcurrentRows(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	cols := Zeros(6, 40)
	for i := range cols.data {
		cols.data[i] = qrValue(rng, false)
	}
	f := FactorQRColumns(cols)
	b := Zeros(12, 40)
	for i := range b.data {
		b.data[i] = qrValue(rng, false)
	}
	want := b.Clone()
	for i := 0; i < want.rows; i++ {
		f.applyQT1(want.Row(i))
	}
	done := make(chan struct{})
	for g := 0; g < 3; g++ {
		go func(r int) {
			f.applyQT4(b.Row(r), b.Row(r+1), b.Row(r+2), b.Row(r+3))
			done <- struct{}{}
		}(4 * g)
	}
	for g := 0; g < 3; g++ {
		<-done
	}
	for i, x := range want.data {
		if !sameBits(b.data[i], x) {
			t.Fatalf("element %d is %v, applyQT1 %v", i, b.data[i], x)
		}
	}
}
