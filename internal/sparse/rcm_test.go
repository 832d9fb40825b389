package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// Bandwidth returns max |i - j| over the stored entries — the quantity RCM
// minimizes.
func Bandwidth(a *CSR) int {
	bw := 0
	for i := 0; i < a.rows; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			d := i - a.colIdx[k]
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// shuffleSym returns P·A·Pᵀ for a random permutation — a scrambled node
// numbering of the same graph, plus the permutation used.
func shuffleSym(a *CSR, seed int64) (*CSR, []int) {
	n := a.Rows()
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	return PermuteSym(a, perm), perm
}

// TestRCMIsPermutation: RCM returns each index exactly once.
func TestRCMIsPermutation(t *testing.T) {
	a := gridLaplacianCSR(21, 13, 0.3)
	perm := RCM(a)
	if len(perm) != a.Rows() {
		t.Fatalf("perm length %d, want %d", len(perm), a.Rows())
	}
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			t.Fatalf("index %d repeated or out of range", p)
		}
		seen[p] = true
	}
}

// TestRCMRecoversGridBandwidth: scrambling a grid's node numbering blows
// the bandwidth up to O(n); RCM must bring it back to the O(min(nx, ny))
// band of the natural ordering.
func TestRCMRecoversGridBandwidth(t *testing.T) {
	nx, ny := 40, 30
	a := gridLaplacianCSR(nx, ny, 0.3)
	scrambled, _ := shuffleSym(a, 17)
	bwBad := Bandwidth(scrambled)
	perm := RCM(scrambled)
	bwGood := Bandwidth(PermuteSym(scrambled, perm))
	if bwBad < 5*bwGood {
		t.Fatalf("scrambled bandwidth %d not much worse than RCM'd %d; test not probing anything", bwBad, bwGood)
	}
	// RCM on a 5-point grid lands within a small factor of min(nx, ny).
	if limit := 2*min(nx, ny) + 2; bwGood > limit {
		t.Fatalf("RCM bandwidth %d, want <= %d", bwGood, limit)
	}
}

// TestPermuteSymValues: entry (i, j) of the permuted matrix equals
// a[perm[i], perm[j]], columns ascending.
func TestPermuteSymValues(t *testing.T) {
	a := gridLaplacianCSR(9, 7, 0.25)
	p, perm := shuffleSym(a, 31)
	n := a.Rows()
	for i := 0; i < n; i++ {
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			if k > p.rowPtr[i] && p.colIdx[k] <= p.colIdx[k-1] {
				t.Fatalf("row %d columns not ascending", i)
			}
			j := p.colIdx[k]
			if got, want := p.val[k], a.At(perm[i], perm[j]); got != want {
				t.Fatalf("(%d,%d) = %v, want a[%d,%d] = %v", i, j, got, perm[i], perm[j], want)
			}
		}
	}
	if p.NNZ() != a.NNZ() {
		t.Fatalf("nnz %d, want %d", p.NNZ(), a.NNZ())
	}
}

// TestPermutedSolveMatchesOriginal: solving the permuted system and mapping
// the solution back agrees with solving the original — the transparency
// contract the pdn backend relies on.
func TestPermutedSolveMatchesOriginal(t *testing.T) {
	a := gridLaplacianCSR(26, 22, 0.3)
	n := a.Rows()
	rng := rand.New(rand.NewSource(8))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, _, err := solveColumns(a, [][]float64{b}, nil, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	perm := RCM(a)
	pa := PermuteSym(a, perm)
	pb := make([]float64, n)
	for newI, oldI := range perm {
		pb[newI] = b[oldI]
	}
	ic, err := NewICModified(pa, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	px, _, err := solveColumns(pa, [][]float64{pb}, nil, CGOptions{Tol: 1e-12, Precond: ic})
	if err != nil {
		t.Fatal(err)
	}
	maxDiff := 0.0
	for newI, oldI := range perm {
		if d := math.Abs(px[0][newI] - x[0][oldI]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-8 {
		t.Fatalf("permuted solve differs from original by %v", maxDiff)
	}
}

// TestRCMDisconnectedComponents: a block-diagonal graph (two separate
// grids) still yields a full valid permutation.
func TestRCMDisconnectedComponents(t *testing.T) {
	g := gridLaplacianCSR(7, 5, 0.3)
	ng := g.Rows()
	n := 2 * ng
	tr := NewTriplet(n, n)
	for i := 0; i < ng; i++ {
		for k := g.rowPtr[i]; k < g.rowPtr[i+1]; k++ {
			tr.Add(i, g.colIdx[k], g.val[k])
			tr.Add(ng+i, ng+g.colIdx[k], g.val[k])
		}
	}
	a := tr.ToCSR()
	perm := RCM(a)
	seen := make([]bool, n)
	for _, p := range perm {
		if seen[p] {
			t.Fatalf("index %d repeated", p)
		}
		seen[p] = true
	}
}
