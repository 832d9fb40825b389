package lasso

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"voltsense/internal/mat"
	"voltsense/internal/simd"
)

// same reports whether a and b have the same bits, counting any two NaNs
// as equal.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// kernelValue draws mostly normal values and, when wild is set, signed
// zeros, infinities and NaNs; zero draws exact (positive) zeros so groups
// get zero coefficients.
func kernelValue(rng *rand.Rand, wild bool) float64 {
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

// offsetSlice returns n values at an offset of off into a larger buffer,
// so the kernels see unaligned vectors.
func offsetSlice(rng *rand.Rand, n, off int, wild bool) []float64 {
	buf := make([]float64, off+n+2)
	s := buf[off : off+n]
	for i := range s {
		s[i] = kernelValue(rng, wild)
	}
	return s
}

func sameSlices(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !same(got[i], want[i]) {
			t.Fatalf("%s: element %d is %v, Go twin %v", what, i, got[i], want[i])
		}
	}
}

// checkFistaRows runs fistaRowsAVX2 beside its Go twin gradRows on a K-by-M
// row pass whose plan comes from the support sup, and requires bitwise
// equal next rows and norms.
func checkFistaRows(t *testing.T, rng *rand.Rand, k, m int, sup []int, off int, wild bool, what string) {
	t.Helper()
	zz := mat.New(m, m, offsetSlice(rng, m*m, off, wild))
	yd := offsetSlice(rng, k*m, off, wild)
	gzd := offsetSlice(rng, k*m, off, wild)
	norms0 := offsetSlice(rng, m, off, wild)
	step := rng.Float64()
	f := &fistaState{gr: &gram{zzt: zz}, step: step, y: mat.New(k, m, yd),
		grad: make([]float64, m), ySup: sup}
	f.planZZt()
	wantN, wantNorms := make([]float64, k*m), append([]float64(nil), norms0...)
	f.gradRows(wantN, wantNorms, yd, gzd)
	gotN, gotNorms := offsetSlice(rng, k*m, off, false), offsetSlice(rng, m, off, false)
	copy(gotNorms, norms0)
	fistaRowsAVX2(gotN, gotNorms, yd, gzd, zz.Data(), offsetSlice(rng, m, off, false), f.groups, k, step)
	sameSlices(t, what+" next", gotN, wantN)
	sameSlices(t, what+" norms", gotNorms, wantNorms)
}

// randomSupport draws an ascending support of about density·m columns,
// dense runs included, so plan groups hold one to four columns.
func randomSupport(rng *rand.Rand, m int, density float64) []int {
	var sup []int
	for j := 0; j < m; j++ {
		if rng.Float64() < density {
			sup = append(sup, j)
		}
	}
	return sup
}

// TestFistaRowsKernelMatchesGo: the AVX2 row pass equals gradRows bitwise
// for M mod 4 = 0–3, plan groups of one to four columns with zero
// coefficients among them, signed zeros, infinities and NaNs, and slices
// at odd offsets.
func TestFistaRowsKernelMatchesGo(t *testing.T) {
	if !simd.AVX2() {
		t.Skip("CPU lacks AVX2")
	}
	rng := rand.New(rand.NewSource(71))
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13, 36, 37, 38, 39} {
		for _, k := range []int{1, 3, 30} {
			for _, density := range []float64{0, 0.2, 0.6, 1} {
				for _, wild := range []bool{false, true} {
					for _, off := range []int{0, 1, 3} {
						what := fmt.Sprintf("k=%d m=%d density=%g wild=%v off=%d", k, m, density, wild, off)
						checkFistaRows(t, rng, k, m, randomSupport(rng, m, density), off, wild, what)
					}
				}
			}
		}
	}
}

// TestZZGroupLayout pins the zzGroup layout fistaRowsAVX2 reads: n at
// byte 0, col[t] at byte 8+8t, 40 bytes per group.
func TestZZGroupLayout(t *testing.T) {
	var g zzGroup
	if unsafe.Sizeof(g) != 40 || unsafe.Offsetof(g.n) != 0 || unsafe.Offsetof(g.col) != 8 || unsafe.Sizeof(g.col[0]) != 8 {
		t.Fatalf("zzGroup is %d bytes with n at %d and col at %d; fistaRowsAVX2 assumes 40, 0 and 8",
			unsafe.Sizeof(g), unsafe.Offsetof(g.n), unsafe.Offsetof(g.col))
	}
}

// TestScaleRowsKernelMatchesGo: the AVX2 scale pass equals scaleRows.
func TestScaleRowsKernelMatchesGo(t *testing.T) {
	if !simd.AVX2() {
		t.Skip("CPU lacks AVX2")
	}
	rng := rand.New(rand.NewSource(72))
	for m := 1; m <= 13; m++ {
		for _, k := range []int{1, 2, 7} {
			for _, wild := range []bool{false, true} {
				scale := offsetSlice(rng, m, 1, wild)
				data := offsetSlice(rng, k*m, 3, wild)
				want := append([]float64(nil), data...)
				scaleRows(want, scale)
				scaleRowsAVX2(data, scale)
				sameSlices(t, fmt.Sprintf("k=%d m=%d wild=%v", k, m, wild), data, want)
			}
		}
	}
}

// TestAddScaledKernelMatchesGo: the AVX2 update s[i][:] += d·ZZᵀ[j][:]
// equals addScaledGo, y longer than x included.
func TestAddScaledKernelMatchesGo(t *testing.T) {
	if !simd.AVX2() {
		t.Skip("CPU lacks AVX2")
	}
	rng := rand.New(rand.NewSource(73))
	for n := 0; n <= 13; n++ {
		for _, wild := range []bool{false, true} {
			for _, off := range []int{0, 1} {
				x := offsetSlice(rng, n, off, wild)
				y := offsetSlice(rng, n+off, 1-off, wild)
				d := kernelValue(rng, wild)
				want := append([]float64(nil), y...)
				addScaledGo(want, d, x)
				addScaledAVX2(y, d, x)
				sameSlices(t, fmt.Sprintf("n=%d d=%v wild=%v", n, d, wild), y, want)
			}
		}
	}
}

// FuzzLassoKernels drives the three lasso kernels over random shapes,
// supports and values against their Go twins.
func FuzzLassoKernels(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(38), uint8(3), uint8(0), false)
	f.Add(int64(2), uint8(1), uint8(5), uint8(8), uint8(1), true)
	f.Add(int64(3), uint8(7), uint8(64), uint8(1), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, k, m, density, off uint8, wild bool) {
		if !simd.AVX2() {
			t.Skip("CPU lacks AVX2")
		}
		if k == 0 || m == 0 || k > 40 || m > 80 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		o := int(off % 4)
		checkFistaRows(t, rng, int(k), int(m), randomSupport(rng, int(m), float64(density%9)/8), o, wild, "fuzz row pass")
		scale := offsetSlice(rng, int(m), o, wild)
		data := offsetSlice(rng, int(k)*int(m), o, wild)
		want := append([]float64(nil), data...)
		scaleRows(want, scale)
		scaleRowsAVX2(data, scale)
		sameSlices(t, "fuzz scale", data, want)
		d := kernelValue(rng, wild)
		y := offsetSlice(rng, int(m), o, wild)
		wantY := append([]float64(nil), y...)
		addScaledGo(wantY, d, scale)
		addScaledAVX2(y, d, scale)
		sameSlices(t, "fuzz addScaled", y, wantY)
	})
}

// TestBCDZeroAllocsPerSweep: once a penalized solve's buffers exist, its
// sweeps allocate nothing: a solve allocates the same whether it runs 5 or
// 50 sweeps.
func TestBCDZeroAllocsPerSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	z, g := sparseProblem(rng, 6, 30, 120, 5)
	gr := newGram(z, g)
	run := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() {
			_, _ = solvePenalizedGram(gr, 0.3, Options{MaxIter: iters, Tol: 1e-300}, mat.Zeros(6, 30))
		})
	}
	if few, many := run(5), run(50); few != many {
		t.Fatalf("BCD allocates %v objects in 5 sweeps and %v in 50; sweeps must not allocate", few, many)
	}
}
