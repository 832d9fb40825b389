package ols

import (
	"math/rand"
	"testing"

	"voltsense/internal/mat"
)

// The Table 1 refit shape at its widest: Q = 76 sensors, K = 240 blocks,
// N = 3000 samples.
func benchFit(b *testing.B, fit func(x, f *mat.Matrix) (*Model, error)) {
	x, f := correlatedSamples(rand.New(rand.NewSource(1)), 76, 240, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit(x, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOLSFit(b *testing.B) { benchFit(b, Fit) }

// BenchmarkOLSFitRowMajor is the baseline: the same fit through the
// row-major QR oracle, transposes included.
func BenchmarkOLSFitRowMajor(b *testing.B) { benchFit(b, fitRowMajor) }
