//go:build !amd64

package lasso

// The AVX2 kernels are never called off amd64: simd.AVX2 is false there.

func fistaRowsAVX2(nd, norms, yd, gzd, zz, grad []float64, groups []zzGroup, k int, step float64) {
	panic("lasso: AVX2 kernel called off amd64")
}

func scaleRowsAVX2(data, scale []float64) { panic("lasso: AVX2 kernel called off amd64") }

func addScaledAVX2(y []float64, d float64, x []float64) {
	panic("lasso: AVX2 kernel called off amd64")
}
