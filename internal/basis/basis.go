// Package basis fits proper orthogonal decomposition (POD) bases from
// training voltage maps and moves traces between the full critical-node
// space and the rank-r coefficient space. A basis fitted on the K×N
// training matrix G (K critical nodes, N samples) retains the r dominant
// left singular vectors U_r; Project replaces every K-dimensional column
// with its r coefficients Uᵀ·g (U·w maps coefficients back). Because U has
// orthonormal columns, least-squares fits and group-lasso
// norms computed in coefficient space agree with the full-space ones up to
// the discarded (1−energy) tail, which is what makes placement and
// per-node regression O(r) instead of O(K).
package basis

import (
	"errors"
	"fmt"

	"voltsense/internal/mat"
)

// DefaultEnergy is the fraction of squared Frobenius energy captured when
// Config leaves both Rank and Energy unset.
const DefaultEnergy = 0.99

// Config selects the basis rank. Rank > 0 pins the rank exactly (clamped
// to the numerical rank of the training matrix); otherwise the smallest
// rank whose cumulative σ² reaches Energy (default DefaultEnergy) is used.
type Config struct {
	Rank   int
	Energy float64
}

// Basis is a fitted POD basis: U is K×r with orthonormal columns.
type Basis struct {
	u *mat.Matrix
	// s is the computed singular spectrum: full on the exact path, the
	// leading block on the truncated path; always ≥ the retained rank.
	s      []float64
	energy float64 // fraction of total energy captured by the retained rank
}

// truncFitDim is the smallest min(K, N) for which Fit switches from the
// exact ThinSVD to blocked subspace iteration. Below it the full Jacobi
// eigendecomposition costs next to nothing and its exactness is worth
// keeping (the r = K placement-equivalence guarantee rides on it).
const truncFitDim = 64

// Fit computes a POD basis from the K×N training matrix g. It fails on
// empty input or when the requested energy is outside (0, 1].
//
// When the requested rank (or the rank the energy target turns out to
// need) is small against min(K, N), the spectrum is computed by
// mat.TruncatedSVD — O(K·N·r) instead of the O(min(K,N)³) exact
// factorization — growing the block until the captured energy, measured
// against the exact ‖G‖_F², reaches the target. Full-rank requests and
// small problems always take the exact path.
func Fit(g *mat.Matrix, cfg Config) (*Basis, error) {
	if g.Rows() == 0 || g.Cols() == 0 {
		return nil, errors.New("basis: empty training matrix")
	}
	energy := cfg.Energy
	if energy == 0 {
		energy = DefaultEnergy
	}
	if energy <= 0 || energy > 1 {
		return nil, fmt.Errorf("basis: energy %g outside (0, 1]", cfg.Energy)
	}
	minDim := g.Rows()
	if g.Cols() < minDim {
		minDim = g.Cols()
	}
	if minDim > truncFitDim {
		if cfg.Rank > 0 && cfg.Rank < minDim {
			return fitTruncated(g, cfg.Rank, 0)
		}
		if cfg.Rank == 0 && energy < 1 {
			return fitTruncatedEnergy(g, energy, minDim)
		}
	}
	svd, err := mat.ThinSVD(g)
	if err != nil {
		return nil, fmt.Errorf("basis: %w", err)
	}
	return basisFromSVD(svd, cfg.Rank, energy)
}

// basisFromSVD picks the rank from an exact spectrum and assembles the
// basis. rank ≤ 0 means "smallest rank reaching energy".
func basisFromSVD(svd *mat.SVD, rank int, energy float64) (*Basis, error) {
	if len(svd.S) == 0 {
		return nil, errors.New("basis: training matrix has numerical rank 0")
	}
	if rank <= 0 {
		rank = RankForEnergy(svd.S, energy)
	}
	if rank > len(svd.S) {
		rank = len(svd.S)
	}
	return &Basis{
		u:      firstCols(svd.U, rank),
		s:      svd.S,
		energy: EnergyForRank(svd.S, rank),
	}, nil
}

// fitTruncated computes a pinned-rank basis via subspace iteration. fro2,
// when positive, is the precomputed squared Frobenius norm of the training
// matrix (the exact total energy); zero means compute it here.
func fitTruncated(g *mat.Matrix, rank int, fro2 float64) (*Basis, error) {
	svd, err := mat.TruncatedSVD(g, rank)
	if err != nil {
		return nil, fmt.Errorf("basis: %w", err)
	}
	if len(svd.S) == 0 {
		return nil, errors.New("basis: training matrix has numerical rank 0")
	}
	if rank > len(svd.S) {
		rank = len(svd.S) // numerical rank of g is below the request
	}
	if fro2 == 0 {
		f := g.FrobeniusNorm()
		fro2 = f * f
	}
	var sum float64
	for _, v := range svd.S[:rank] {
		sum += v * v
	}
	captured := 1.0
	if fro2 > 0 {
		captured = sum / fro2
		if captured > 1 {
			captured = 1
		}
	}
	return &Basis{
		u:      firstCols(svd.U, rank),
		s:      svd.S,
		energy: captured,
	}, nil
}

// fitTruncatedEnergy grows the truncated spectrum until the captured
// energy — measured against the exact ‖G‖_F², so the check is conservative
// — reaches the target, then keeps the smallest sufficient prefix. If the
// target needs a rank comparable to min(K, N) it falls back to the exact
// factorization.
func fitTruncatedEnergy(g *mat.Matrix, energy float64, minDim int) (*Basis, error) {
	f := g.FrobeniusNorm()
	fro2 := f * f
	for k := 16; ; k *= 2 {
		if k*2 >= minDim {
			break // truncation no longer pays; use the exact path
		}
		svd, err := mat.TruncatedSVD(g, k)
		if err != nil {
			return nil, fmt.Errorf("basis: %w", err)
		}
		var sum float64
		rank := 0
		for _, v := range svd.S {
			sum += v * v
			rank++
			if sum >= energy*fro2 {
				return fitFromPrefix(svd, rank, sum, fro2)
			}
		}
		if len(svd.S) < k {
			// The whole numerical spectrum fits in the block: nothing more
			// to capture, keep everything.
			return fitFromPrefix(svd, len(svd.S), sum, fro2)
		}
	}
	svd, err := mat.ThinSVD(g)
	if err != nil {
		return nil, fmt.Errorf("basis: %w", err)
	}
	return basisFromSVD(svd, 0, energy)
}

// fitFromPrefix assembles a basis from the leading rank triplets of a
// truncated spectrum with captured energy sum/fro2.
func fitFromPrefix(svd *mat.SVD, rank int, sum, fro2 float64) (*Basis, error) {
	if rank == 0 {
		return nil, errors.New("basis: training matrix has numerical rank 0")
	}
	captured := 1.0
	if fro2 > 0 {
		captured = sum / fro2
		if captured > 1 {
			captured = 1
		}
	}
	return &Basis{
		u:      firstCols(svd.U, rank),
		s:      svd.S,
		energy: captured,
	}, nil
}

// Rank returns the number of retained basis vectors r.
func (b *Basis) Rank() int { return b.u.Cols() }

// Nodes returns the full-space dimension K the basis was fitted on.
func (b *Basis) Nodes() int { return b.u.Rows() }

// EnergyCaptured returns the fraction of training Σσ² the retained rank
// explains.
func (b *Basis) EnergyCaptured() float64 { return b.energy }

// SingularValues returns a copy of the computed training spectrum: the
// full numerical spectrum when the exact factorization ran, or the leading
// block (at least the retained rank) when the truncated path did.
func (b *Basis) SingularValues() []float64 {
	out := make([]float64, len(b.s))
	copy(out, b.s)
	return out
}

// Components returns a copy of the K×r basis matrix U.
func (b *Basis) Components() *mat.Matrix { return b.u.Clone() }

// Project maps a K×N full-space matrix to the r×N coefficient matrix Uᵀ·g.
func (b *Basis) Project(g *mat.Matrix) (*mat.Matrix, error) {
	if g.Rows() != b.Nodes() {
		return nil, fmt.Errorf("basis: Project: %d rows, basis has %d nodes", g.Rows(), b.Nodes())
	}
	return mat.Mul(b.u.T(), g), nil
}

// RankForEnergy returns the smallest prefix of the descending spectrum s
// whose cumulative σ² reaches the given energy fraction.
func RankForEnergy(s []float64, energy float64) int {
	var total float64
	for _, v := range s {
		total += v * v
	}
	if total == 0 {
		return len(s)
	}
	var sum float64
	for i, v := range s {
		sum += v * v
		if sum >= energy*total {
			return i + 1
		}
	}
	return len(s)
}

// EnergyForRank returns the fraction of Σσ² the leading r values explain.
func EnergyForRank(s []float64, r int) float64 {
	if r > len(s) {
		r = len(s)
	}
	var total, sum float64
	for i, v := range s {
		if i < r {
			sum += v * v
		}
		total += v * v
	}
	if total == 0 {
		return 1
	}
	return sum / total
}

// firstCols copies the leading k columns of m.
func firstCols(m *mat.Matrix, k int) *mat.Matrix {
	out := mat.Zeros(m.Rows(), k)
	for i := 0; i < m.Rows(); i++ {
		copy(out.Row(i), m.Row(i)[:k])
	}
	return out
}
