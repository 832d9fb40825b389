package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"voltsense/internal/simd"
)

// same reports whether a and b have the same bits, counting any two NaNs
// as equal.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// kernelValue draws mostly normal values and, when wild is set, signed
// zeros, infinities, NaNs with random payloads and subnormals.
func kernelValue(rng *rand.Rand, wild bool) float64 {
	if wild {
		switch rng.Intn(16) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Inf(1 - 2*rng.Intn(2))
		case 3:
			return math.Float64frombits(0x7ff8000000000000 | rng.Uint64()>>13)
		case 4:
			return math.Float64frombits(rng.Uint64() >> 12) // subnormal
		}
	}
	return rng.NormFloat64()
}

// kernelSlice returns n drawn values at an offset of off into a larger
// buffer, so the kernels see unaligned rows.
func kernelSlice(rng *rand.Rand, n, off int, wild bool) []float64 {
	s := make([]float64, off+n+3)[off : off+n]
	for i := range s {
		s[i] = kernelValue(rng, wild)
	}
	return s
}

func cloneSlice(s []float64) []float64 { return append([]float64(nil), s...) }

// sameSlices requires got and want to match under NaN-aware ==.
func sameSlices(t testing.TB, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !same(got[i], want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), Go twin %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// Row shapes of randomPattern: any columns (SpMV), the columns before the
// row and the diagonal last (the forward sweep's L), or the diagonal first
// and the columns after it (the backward sweep's Lᵀ).
const (
	patternAny = iota
	patternLower
	patternUpper
)

// randomPattern draws an n×n CSR pattern of the given shape with up to
// six off-diagonal nonzeros a row (some rows have none) and kernelValue
// values.
func randomPattern(rng *rand.Rand, n, shape int, wild bool) (rowPtr, colIdx []int, val []float64) {
	rowPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		lo, hi := 0, n
		switch shape {
		case patternLower:
			hi = i
		case patternUpper:
			lo = i + 1
			colIdx = append(colIdx, i)
		}
		var row []int
		for k := rng.Intn(7); k > 0 && hi > lo; k-- {
			row = append(row, lo+rng.Intn(hi-lo))
		}
		slices.Sort(row)
		colIdx = append(colIdx, slices.Compact(row)...)
		if shape == patternLower {
			colIdx = append(colIdx, i)
		}
		rowPtr[i+1] = len(colIdx)
	}
	val = kernelSlice(rng, len(colIdx), 1, wild)
	return rowPtr, colIdx, val
}

// rowRanges are the [lo, hi) row ranges the kernel tests run for n rows:
// the whole range, odd bounds, one row and an empty range.
func rowRanges(n int) [][2]int {
	return [][2]int{{0, n}, {1, n - 2}, {3, 4}, {5, 5}, {n - 1, n}}
}

// TestBatchSpMVKernelMatchesGo: the AVX2 SpMV equals batchSpMVGo under
// NaN-aware == at widths 1–13, odd row ranges, empty rows, unaligned
// operands, signed zeros, infinities, NaNs and subnormals.
func TestBatchSpMVKernelMatchesGo(t *testing.T) {
	if !simd.AVX2() {
		t.Skip("CPU lacks AVX2")
	}
	rng := rand.New(rand.NewSource(81))
	const n = 29
	for m := 1; m <= 13; m++ {
		for _, wild := range []bool{false, true} {
			rowPtr, colIdx, val := randomPattern(rng, n, patternAny, wild)
			x := kernelSlice(rng, n*m, 1, wild)
			for _, r := range rowRanges(n) {
				y := kernelSlice(rng, n*m, 3, false)
				want := cloneSlice(y)
				batchSpMVGo(want, x, rowPtr, colIdx, val, m, r[0], r[1])
				batchSpMVAVX2(y, x, rowPtr, colIdx, val, m, r[0], r[1])
				sameSlices(t, fmt.Sprintf("m=%d wild=%v rows %v", m, wild, r), y, want)
			}
		}
	}
}

// TestICSweepKernelMatchesGo: the AVX2 forward and backward IC sweeps equal
// icForwardGo and icBackwardGo on random triangular patterns, rows outside
// the range holding values the sweep reads.
func TestICSweepKernelMatchesGo(t *testing.T) {
	if !simd.AVX2() {
		t.Skip("CPU lacks AVX2")
	}
	rng := rand.New(rand.NewSource(82))
	const n = 29
	for m := 1; m <= 13; m++ {
		for _, wild := range []bool{false, true} {
			lp, lc, lv := randomPattern(rng, n, patternLower, wild)
			up, uc, uv := randomPattern(rng, n, patternUpper, wild)
			r := kernelSlice(rng, n*m, 1, wild)
			for _, rr := range rowRanges(n) {
				what := fmt.Sprintf("m=%d wild=%v rows %v", m, wild, rr)
				z := kernelSlice(rng, n*m, 3, wild)
				want := cloneSlice(z)
				icForwardGo(want, r, lp, lc, lv, m, rr[0], rr[1])
				icForwardAVX2(z, r, lp, lc, lv, m, rr[0], rr[1])
				sameSlices(t, what+" forward", z, want)
				icBackwardGo(want, up, uc, uv, m, rr[0], rr[1])
				icBackwardAVX2(z, up, uc, uv, m, rr[0], rr[1])
				sameSlices(t, what+" backward", z, want)
			}
		}
	}
}

// TestBatchDotKernelMatchesGo: the AVX2 blocked dots equal batchDotGo at
// widths 1–13 and 16–19 (more than one 16-column group), on a row count
// past two reduction blocks with a short last block, for every block
// range.
func TestBatchDotKernelMatchesGo(t *testing.T) {
	if !simd.AVX2() {
		t.Skip("CPU lacks AVX2")
	}
	rng := rand.New(rand.NewSource(83))
	n := 2*dotBlock + 37
	nb := numDotBlocks(n)
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18, 19}
	for _, m := range widths {
		for _, wild := range []bool{false, true} {
			x := kernelSlice(rng, n*m, 1, wild)
			y := kernelSlice(rng, n*m, 2, wild)
			for _, br := range [][2]int{{0, nb}, {1, nb}, {0, 1}, {2, 2}} {
				sums := kernelSlice(rng, nb*m, 3, false)
				want := cloneSlice(sums)
				batchDotGo(want, x, y, m, n, br[0], br[1])
				batchDotAVX2(sums, x, y, m, n, br[0], br[1])
				sameSlices(t, fmt.Sprintf("m=%d wild=%v blocks %v", m, wild, br), sums, want)
			}
		}
	}
}

// randomActive draws a column mask: all active, all frozen, or each column
// active with probability one half.
func randomActive(rng *rand.Rand, m int) []bool {
	active := make([]bool, m)
	mode := rng.Intn(4)
	for c := range active {
		active[c] = mode == 0 || (mode > 1 && rng.Intn(2) == 0)
	}
	return active
}

// sameMasked requires got to equal want under NaN-aware == in active
// columns and to keep the exact bits of old in frozen ones.
func sameMasked(t testing.TB, what string, got, want, old []float64, active []bool) {
	t.Helper()
	m := len(active)
	for i := range want {
		if active[i%m] {
			if !same(got[i], want[i]) {
				t.Fatalf("%s: active element %d is %v, Go twin %v", what, i, got[i], want[i])
			}
		} else if math.Float64bits(got[i]) != math.Float64bits(old[i]) {
			t.Fatalf("%s: frozen element %d changed from %#x to %#x", what, i,
				math.Float64bits(old[i]), math.Float64bits(got[i]))
		}
	}
}

// TestBatchMaskedUpdateKernelMatchesGo: the AVX2 masked updates axpy2 and xpby
// equal their Go twins in active columns and leave every frozen column's
// bits, NaN payloads and signed zeros included, as they were — also where
// the frozen step is zero and the operand infinite, which a multiply by
// the zeroed step would turn into NaN.
func TestBatchMaskedUpdateKernelMatchesGo(t *testing.T) {
	if !simd.AVX2() {
		t.Skip("CPU lacks AVX2")
	}
	rng := rand.New(rand.NewSource(84))
	const n = 23
	for m := 1; m <= 13; m++ {
		for _, wild := range []bool{false, true} {
			for _, rr := range rowRanges(n) {
				what := fmt.Sprintf("m=%d wild=%v rows %v", m, wild, rr)
				active := randomActive(rng, m)
				mask := make([]uint64, m)
				activeMask(mask, active)
				sc := kernelSlice(rng, m, 1, wild)
				for c, on := range active {
					if !on {
						sc[c] = 0 // as SolveBatch leaves a frozen column's step
					}
				}
				z := kernelSlice(rng, n*m, 2, wild)
				w := kernelSlice(rng, n*m, 3, wild)
				x := kernelSlice(rng, n*m, 1, wild)
				y := kernelSlice(rng, n*m, 0, wild)
				x0, y0 := cloneSlice(x), cloneSlice(y)
				wantX, wantY := cloneSlice(x), cloneSlice(y)
				batchAxpy2Go(wantX, z, wantY, w, sc, active, m, rr[0], rr[1])
				batchAxpy2AVX2(x, z, y, w, sc, mask, m, rr[0], rr[1])
				sameMasked(t, what+" axpy2 x", x, wantX, x0, active)
				sameMasked(t, what+" axpy2 y", y, wantY, y0, active)

				x0 = cloneSlice(x)
				wantX = cloneSlice(x)
				batchXpBYGo(wantX, z, sc, active, m, rr[0], rr[1])
				batchXpBYAVX2(x, z, sc, mask, m, rr[0], rr[1])
				sameMasked(t, what+" xpby", x, wantX, x0, active)
			}
		}
	}
}

// TestBatchSubKernelMatchesGo: the AVX2 r = b − r equals batchSubGo.
func TestBatchSubKernelMatchesGo(t *testing.T) {
	if !simd.AVX2() {
		t.Skip("CPU lacks AVX2")
	}
	rng := rand.New(rand.NewSource(85))
	const n = 23
	for m := 1; m <= 13; m++ {
		for _, rr := range rowRanges(n) {
			y := kernelSlice(rng, n*m, 1, true)
			x := kernelSlice(rng, n*m, 2, true)
			want := cloneSlice(x)
			batchSubGo(want, y, m, rr[0], rr[1])
			batchSubAVX2(x, y, m, rr[0], rr[1])
			sameSlices(t, fmt.Sprintf("m=%d rows %v", m, rr), x, want)
		}
	}
}

// FuzzBatchCGKernels runs every batch PCG kernel beside its Go twin on
// inputs drawn from the fuzzed seed, width, row count and range: bitwise
// equal results (NaN-aware) and untouched frozen columns.
func FuzzBatchCGKernels(f *testing.F) {
	f.Add(int64(1), uint8(10), uint16(40), uint16(3), uint16(37), true)
	f.Add(int64(2), uint8(9), uint16(4200), uint16(0), uint16(4200), false)
	f.Add(int64(3), uint8(1), uint16(7), uint16(0), uint16(7), true)
	f.Add(int64(4), uint8(19), uint16(300), uint16(299), uint16(300), true)
	f.Fuzz(func(t *testing.T, seed int64, mm uint8, nn, lo16, hi16 uint16, wild bool) {
		if !simd.AVX2() {
			t.Skip("CPU lacks AVX2")
		}
		m := 1 + int(mm)%19
		n := 1 + int(nn)%9000
		lo, hi := int(lo16)%(n+1), int(hi16)%(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		rng := rand.New(rand.NewSource(seed))
		what := fmt.Sprintf("m=%d n=%d rows [%d, %d) wild=%v", m, n, lo, hi, wild)

		rowPtr, colIdx, val := randomPattern(rng, n, patternAny, wild)
		x := kernelSlice(rng, n*m, 1, wild)
		y := kernelSlice(rng, n*m, 2, wild)
		want := cloneSlice(y)
		batchSpMVGo(want, x, rowPtr, colIdx, val, m, lo, hi)
		batchSpMVAVX2(y, x, rowPtr, colIdx, val, m, lo, hi)
		sameSlices(t, what+" spmv", y, want)

		lp, lc, lv := randomPattern(rng, n, patternLower, wild)
		up, uc, uv := randomPattern(rng, n, patternUpper, wild)
		z := kernelSlice(rng, n*m, 3, wild)
		want = cloneSlice(z)
		icForwardGo(want, x, lp, lc, lv, m, lo, hi)
		icForwardAVX2(z, x, lp, lc, lv, m, lo, hi)
		sameSlices(t, what+" forward", z, want)
		icBackwardGo(want, up, uc, uv, m, lo, hi)
		icBackwardAVX2(z, up, uc, uv, m, lo, hi)
		sameSlices(t, what+" backward", z, want)

		nb := numDotBlocks(n)
		blo, bhi := lo*nb/(n+1), hi*nb/(n+1)+1
		bhi = min(bhi, nb)
		sums := kernelSlice(rng, nb*m, 0, false)
		want = cloneSlice(sums)
		batchDotGo(want, x, z, m, n, blo, bhi)
		batchDotAVX2(sums, x, z, m, n, blo, bhi)
		sameSlices(t, what+" dot", sums, want)

		active := randomActive(rng, m)
		mask := make([]uint64, m)
		activeMask(mask, active)
		sc := kernelSlice(rng, m, 1, wild)
		w := kernelSlice(rng, n*m, 0, wild)
		x0, z0 := cloneSlice(x), cloneSlice(z)
		wantX, wantZ := cloneSlice(x), cloneSlice(z)
		batchAxpy2Go(wantX, y, wantZ, w, sc, active, m, lo, hi)
		batchAxpy2AVX2(x, y, z, w, sc, mask, m, lo, hi)
		sameMasked(t, what+" axpy2 x", x, wantX, x0, active)
		sameMasked(t, what+" axpy2 y", z, wantZ, z0, active)

		x0 = cloneSlice(x)
		wantX = cloneSlice(x)
		batchXpBYGo(wantX, y, sc, active, m, lo, hi)
		batchXpBYAVX2(x, y, sc, mask, m, lo, hi)
		sameMasked(t, what+" xpby", x, wantX, x0, active)

		want = cloneSlice(x)
		batchSubGo(want, y, m, lo, hi)
		batchSubAVX2(x, y, m, lo, hi)
		sameSlices(t, what+" sub", x, want)
	})
}
