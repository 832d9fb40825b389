package place

import (
	"math"
	"math/rand"
	"testing"

	"voltsense/internal/basis"
	"voltsense/internal/mat"
)

// benchProblem mirrors testProblem at benchmark scale.
func benchProblem(b *testing.B, m, k, n, rank int) *Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	h := randMat(rng, rank, n)
	x := mat.Mul(randMat(rng, m, rank), h)
	f := mat.Mul(randMat(rng, k, rank), h)
	p, err := NewProblem(x, f, basis.Config{Rank: rank}, 0.85)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkDOptSherman measures the production D-optimal greedy, which
// scores every candidate in O(r²) through the maintained Sherman–Morrison
// inverse.
func BenchmarkDOptSherman(b *testing.B) {
	p := benchProblem(b, 200, 8, 400, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (DOpt{}).Select(p, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDOptNaive is the baseline the rank-1 bookkeeping replaces: the
// same greedy recomputing the exact log-det objective from scratch (an r×r
// eigendecomposition per candidate per step). The speedup pair
// (BenchmarkDOptNaive, BenchmarkDOptSherman) is tracked in the PR-8 bench
// report.
func BenchmarkDOptNaive(b *testing.B) {
	p := benchProblem(b, 200, 8, 400, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sel []int
		chosen := make([]bool, p.Candidates())
		for len(sel) < 20 {
			best, bestLD := -1, math.Inf(-1)
			for c := 0; c < p.Candidates(); c++ {
				if chosen[c] {
					continue
				}
				ld, err := LogDetInfo(p.Psi, append(sel, c))
				if err != nil {
					b.Fatal(err)
				}
				if ld > bestLD {
					best, bestLD = c, ld
				}
			}
			chosen[best] = true
			sel = append(sel, best)
		}
	}
}

// BenchmarkFrameSense tracks the worst-out frame-potential elimination.
func BenchmarkFrameSense(b *testing.B) {
	p := benchProblem(b, 200, 8, 400, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (FrameSense{}).Select(p, 20); err != nil {
			b.Fatal(err)
		}
	}
}
