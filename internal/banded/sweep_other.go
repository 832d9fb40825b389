//go:build !amd64

package banded

// solveColsAVX2 is never called off amd64: simd.AVX2 is false there.
func solveColsAVX2(data, rdiag, x []float64, n, bw, m, nv int) {
	panic("banded: AVX2 kernel called off amd64")
}
