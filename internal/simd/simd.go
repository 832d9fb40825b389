// Package simd reports, once per process, whether the CPU and the operating
// system support the AVX2 kernels of packages banded, pdn, lasso and mat.
//
// Those kernels perform exactly the floating-point operations of the Go
// loops they replace, in the same order for every output element, four
// elements at a time, so their results are bitwise those of the Go code:
// the probe picks a speed, never an answer. The result is fixed at start-up
// and nothing changes it afterwards.
package simd

// AVX2 reports whether the AVX2 kernels may run: on amd64, CPUID leaf 1
// reports AVX and OSXSAVE, XGETBV reports that the operating system saves
// the XMM and YMM state, and CPUID leaf 7 reports AVX2. It is false on
// every other architecture.
func AVX2() bool { return hasAVX2 }

var hasAVX2 = probeAVX2()
