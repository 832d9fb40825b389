package place

import "voltsense/internal/mat"

// FrameSense is Ranieri et al.'s near-optimal greedy for linear inverse
// problems: minimize the frame potential FP(S) = Σ_{i,j∈S} ⟨ψ_i, ψ_j⟩² by
// worst-out elimination. Starting from all M candidates, each step removes
// the row whose deletion decreases FP the most (the row most coherent with
// the survivors), until q remain. FP is within a constant of the MSE of the
// best linear estimator, which is what earns the greedy its (1−1/e)-style
// guarantee; maintaining the pairwise Gram makes the whole elimination
// O(M²·r + M²) — the Gram dominates.
type FrameSense struct{}

// Name returns "framesense".
func (FrameSense) Name() string { return "framesense" }

// Select eliminates M−q candidates from the full pool.
func (FrameSense) Select(p *Problem, q int) ([]int, error) {
	if err := p.checkBudget(q); err != nil {
		return nil, err
	}
	m := p.Psi.Rows()
	g := mat.Mul(p.Psi, p.Psi.T()) // M×M row Gram
	alive := make([]bool, m)
	// contrib[i] = 2 Σ_{j alive, j≠i} G_ij² + G_ii², the exact FP drop if
	// row i is eliminated.
	contrib := make([]float64, m)
	for i := 0; i < m; i++ {
		alive[i] = true
	}
	for i := 0; i < m; i++ {
		gi := g.Row(i)
		var s float64
		for j, v := range gi {
			if j != i {
				s += v * v
			}
		}
		contrib[i] = 2*s + gi[i]*gi[i]
	}
	for remaining := m; remaining > q; remaining-- {
		worst, worstC := -1, -1.0
		for i := 0; i < m; i++ {
			if alive[i] && contrib[i] > worstC {
				worst, worstC = i, contrib[i]
			}
		}
		alive[worst] = false
		gw := g.Row(worst)
		for i := 0; i < m; i++ {
			if alive[i] && i != worst {
				contrib[i] -= 2 * gw[i] * gw[i]
			}
		}
	}
	sel := make([]int, 0, q)
	for i := 0; i < m; i++ {
		if alive[i] {
			sel = append(sel, i)
		}
	}
	return sel, nil // elimination preserves index order
}

// FramePotential evaluates FP(S) = Σ_{i,j∈S} ⟨ψ_i, ψ_j⟩² for a selection —
// the quantity FrameSense minimizes, exported for tests and reporting.
func FramePotential(psi *mat.Matrix, sel []int) float64 {
	var fp float64
	for _, i := range sel {
		ri := psi.Row(i)
		for _, j := range sel {
			d := mat.Dot(ri, psi.Row(j))
			fp += d * d
		}
	}
	return fp
}
