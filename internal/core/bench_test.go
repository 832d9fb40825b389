package core

import (
	"math/rand"
	"testing"
)

// servedFallbackFixture is the served artifact's fallback shape: Q = 16
// sensors, K = 240 blocks, N = 2983 training samples, budget 2.
func servedFallbackFixture() (*Dataset, []int) {
	selected := make([]int, 16)
	for i := range selected {
		selected[i] = 2 * i
	}
	return syntheticDataset(rand.New(rand.NewSource(1)), 34, 240, 2983, selected, 0.002), selected
}

func benchFallbacks(b *testing.B, fit func(*Dataset, []int, int) (*FallbackSet, error)) {
	ds, selected := servedFallbackFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit(ds, selected, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitFallbacks(b *testing.B) { benchFallbacks(b, FitFallbacks) }

// BenchmarkFitFallbacksRefit is the baseline: every model refit from the
// raw samples and scored by predicting the training set (the test oracle).
func BenchmarkFitFallbacksRefit(b *testing.B) { benchFallbacks(b, refitFallbacks) }
