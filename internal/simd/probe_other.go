//go:build !amd64

package simd

func probeAVX2() bool { return false }
