//go:build !amd64

package mat

// applyQT4AVX2 is never called off amd64: simd.AVX2 is false there.
func applyQT4AVX2(v, tau, w []float64) { panic("mat: AVX2 kernel called off amd64") }
