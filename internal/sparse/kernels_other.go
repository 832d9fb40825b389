//go:build !amd64

package sparse

// The AVX2 kernels are never called off amd64: simd.AVX2 is false there.

func batchSpMVAVX2(y, x []float64, rowPtr, colIdx []int, val []float64, m, lo, hi int) {
	panic("sparse: AVX2 kernel called off amd64")
}

func icForwardAVX2(z, r []float64, rowPtr, colIdx []int, val []float64, m, lo, hi int) {
	panic("sparse: AVX2 kernel called off amd64")
}

func icBackwardAVX2(z []float64, rowPtr, colIdx []int, val []float64, m, lo, hi int) {
	panic("sparse: AVX2 kernel called off amd64")
}

func batchDotAVX2(sums, x, y []float64, m, n, lo, hi int) {
	panic("sparse: AVX2 kernel called off amd64")
}

func batchAxpy2AVX2(x, z, y, w, sc []float64, mask []uint64, m, lo, hi int) {
	panic("sparse: AVX2 kernel called off amd64")
}

func batchXpBYAVX2(x, y, sc []float64, mask []uint64, m, lo, hi int) {
	panic("sparse: AVX2 kernel called off amd64")
}

func batchSubAVX2(x, y []float64, m, lo, hi int) { panic("sparse: AVX2 kernel called off amd64") }
