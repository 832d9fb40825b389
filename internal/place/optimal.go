package place

import (
	"fmt"
	"math"

	"voltsense/internal/mat"
)

// infoEps scales the Tikhonov seed of the information matrix: greedy
// optimality criteria start from M₀ = ε·I so the first picks are defined
// even while the information matrix is rank-deficient. ε is relative to the
// mean squared basis-row norm, keeping the criteria scale-free.
const infoEps = 1e-6

// infoState tracks the inverse of the regularized information matrix
// M = ε·I + Σ_{s∈S} w_s ψ_s ψ_sᵀ under rank-1 updates (Sherman–Morrison),
// the shared engine behind DOpt, EOpt, WorstCase and the mixed-class greedy.
type infoState struct {
	r    int
	eps  float64
	inv  *mat.Matrix // M⁻¹, r×r
	info *mat.Matrix // M itself, kept for exact eigenvalue queries
}

func newInfoState(psi *mat.Matrix) *infoState {
	return newInfoStateEps(psi, infoEps)
}

// newInfoStateEps seeds M₀ = (scale·mean‖ψ‖²)·I: the optimality criteria use
// the tiny infoEps (pure regularization), while WorstCase wants a substantive
// prior — see its doc comment.
func newInfoStateEps(psi *mat.Matrix, scale float64) *infoState {
	m, r := psi.Rows(), psi.Cols()
	var meanN2 float64
	for i := 0; i < m; i++ {
		row := psi.Row(i)
		meanN2 += mat.Dot(row, row)
	}
	if m > 0 {
		meanN2 /= float64(m)
	}
	eps := scale * meanN2
	if eps <= 0 {
		eps = scale
	}
	inv := mat.Eye(r)
	info := mat.Eye(r)
	for i := 0; i < r; i++ {
		inv.Set(i, i, 1/eps)
		info.Set(i, i, eps)
	}
	return &infoState{r: r, eps: eps, inv: inv, info: info}
}

// gain returns ψᵀ M⁻¹ ψ · w, the D-optimal log-det increment argument for
// adding ψ with information weight w: log det(M + wψψᵀ) = log det M +
// log(1 + w·ψᵀM⁻¹ψ).
func (st *infoState) gain(psi []float64, w float64) float64 {
	u := mat.MulVec(st.inv, psi)
	return w * mat.Dot(psi, u)
}

// add rank-1 updates both M and M⁻¹ with w·ψψᵀ.
func (st *infoState) add(psi []float64, w float64) {
	u := mat.MulVec(st.inv, psi) // M⁻¹ψ
	denom := 1 + w*mat.Dot(psi, u)
	for i := 0; i < st.r; i++ {
		row := st.inv.Row(i)
		ui := u[i]
		for j := 0; j < st.r; j++ {
			row[j] -= w * ui * u[j] / denom
		}
	}
	for i := 0; i < st.r; i++ {
		row := st.info.Row(i)
		pi := psi[i]
		for j := 0; j < st.r; j++ {
			row[j] += w * pi * psi[j]
		}
	}
}

// DOpt is greedy D-optimal design: each step adds the candidate maximizing
// det(M + ψψᵀ), i.e. the volume of the information ellipsoid, evaluated in
// O(r²) per candidate through the rank-1 determinant lemma on the maintained
// M⁻¹. Log-det of the information matrix is monotone submodular, so the
// greedy enjoys the usual (1−1/e) near-optimality; complexity is O(M·q·r²).
// TestDOptGreedyMatchesBruteForce pins the incremental arithmetic against
// naive log-det recomputation.
//
// Up to the basis rank this is the SSPOR column-pivoted QR greedy of
// PySensors 2.0: with selection S spanning V, ψᵀM⁻¹ψ = ‖ψ⊥‖²/ε +
// O(‖ψ‖²/σ²_min), where ψ⊥ is ψ's residual orthogonal to V and σ²_min the
// smallest nonzero eigenvalue of the selected rows' information, so the
// greedy takes the largest residual norm — pivoted QR's choice
// (TestDOptMatchesPivotedQR). Past the rank the residuals vanish and the
// O(‖ψ‖²/σ²_min) term keeps ranking candidates by how much they sharpen the
// directions already covered. The gain depends only on inner products
// between basis rows, so the selection is invariant under any orthogonal
// rotation of the basis (TestDOptRotationInvariant).
type DOpt struct{}

// Name returns "dopt".
func (DOpt) Name() string { return "dopt" }

// Select runs the greedy volume maximization.
func (DOpt) Select(p *Problem, q int) ([]int, error) {
	if err := p.checkBudget(q); err != nil {
		return nil, err
	}
	m := p.Psi.Rows()
	st := newInfoState(p.Psi)
	chosen := make([]bool, m)
	sel := make([]int, 0, q)
	for len(sel) < q {
		best, bestGain := -1, 0.0
		for i := 0; i < m; i++ {
			if chosen[i] {
				continue
			}
			// Lowest index wins ties within a relative margin: on standardized
			// data every candidate's first-step gain is mathematically equal
			// (row norms are equalized), and without the margin fp noise would
			// pick the winner.
			if g := st.gain(p.Psi.Row(i), 1); best < 0 || g > bestGain*(1+1e-9) {
				best, bestGain = i, g
			}
		}
		chosen[best] = true
		sel = append(sel, best)
		st.add(p.Psi.Row(best), 1)
	}
	return ascending(sel), nil
}

// LogDetInfo computes log det(ε·I + Σ_{s∈sel} ψ_s ψ_sᵀ) by eigendecomposition
// — the exact D-optimality objective, exported so tests can cross-check the
// greedy's Sherman–Morrison bookkeeping against first principles.
func LogDetInfo(psi *mat.Matrix, sel []int) (float64, error) {
	st := newInfoState(psi)
	for _, s := range sel {
		st.add(psi.Row(s), 1)
	}
	e, err := mat.FactorSymEigen(st.info)
	if err != nil {
		return 0, err
	}
	var ld float64
	for _, v := range e.Values {
		if v <= 0 {
			return 0, fmt.Errorf("place: non-positive information eigenvalue %g", v)
		}
		ld += math.Log(v)
	}
	return ld, nil
}

// EOpt is greedy E-optimal design: maximize the smallest eigenvalue of the
// information matrix, guarding the worst-conditioned direction of the
// inverse problem. Because λ_min stays pinned at the ε seed until the
// selection reaches full rank, candidates are compared by the whole
// ascending eigenvalue spectrum lexicographically — maximize λ₁, break ties
// on λ₂, and so on — which reduces to plain λ_min maximization once the
// matrix is full-rank. Each evaluation is an exact r×r Jacobi
// eigendecomposition, so the cost is O(M·q·r³); r is small by construction.
type EOpt struct{}

// Name returns "eopt".
func (EOpt) Name() string { return "eopt" }

// Select runs the greedy spectrum maximization.
func (EOpt) Select(p *Problem, q int) ([]int, error) {
	if err := p.checkBudget(q); err != nil {
		return nil, err
	}
	m, r := p.Psi.Rows(), p.Psi.Cols()
	st := newInfoState(p.Psi)
	chosen := make([]bool, m)
	sel := make([]int, 0, q)
	trial := mat.Zeros(r, r)
	for len(sel) < q {
		best := -1
		var bestSpec []float64
		for i := 0; i < m; i++ {
			if chosen[i] {
				continue
			}
			spec, err := trialSpectrum(st, p.Psi.Row(i), 1, trial)
			if err != nil {
				return nil, err
			}
			if best < 0 || lexLess(bestSpec, spec) {
				best, bestSpec = i, spec
			}
		}
		chosen[best] = true
		sel = append(sel, best)
		st.add(p.Psi.Row(best), 1)
	}
	return ascending(sel), nil
}

// trialSpectrum returns the ascending eigenvalues of M + w·ψψᵀ without
// mutating the state; trial is a caller-owned r×r scratch matrix.
func trialSpectrum(st *infoState, psi []float64, w float64, trial *mat.Matrix) ([]float64, error) {
	r := st.r
	for i := 0; i < r; i++ {
		src, dst := st.info.Row(i), trial.Row(i)
		pi := psi[i]
		for j := 0; j < r; j++ {
			dst[j] = src[j] + w*pi*psi[j]
		}
	}
	e, err := mat.FactorSymEigen(trial)
	if err != nil {
		return nil, err
	}
	// FactorSymEigen sorts descending; reverse into ascending order so the
	// lexicographic comparison leads with λ_min.
	spec := make([]float64, len(e.Values))
	for i, v := range e.Values {
		spec[len(spec)-1-i] = v
	}
	return spec, nil
}

// lexLess reports whether spectrum a is lexicographically below b. The tie
// tolerance is relative to the spectrum's overall scale (its largest
// eigenvalue), NOT per entry: the ε-seed eigenvalues carry Jacobi roundoff
// that is huge relative to ε itself, and a per-entry tolerance would let
// that noise decide picks before the comparison reaches the informative
// entries.
func lexLess(a, b []float64) bool {
	tol := 1e-10 * (math.Max(math.Abs(a[len(a)-1]), math.Abs(b[len(b)-1])) + 1e-300)
	for i := range a {
		if b[i]-a[i] > tol {
			return true
		}
		if a[i]-b[i] > tol {
			return false
		}
	}
	return false
}

// MinEigenInfo returns λ_min(ε·I + Σ_{s∈sel} ψ_s ψ_sᵀ), the E-optimality
// objective, for tests and reporting.
func MinEigenInfo(psi *mat.Matrix, sel []int) (float64, error) {
	st := newInfoState(psi)
	for _, s := range sel {
		st.add(psi.Row(s), 1)
	}
	e, err := mat.FactorSymEigen(st.info)
	if err != nil {
		return 0, err
	}
	return e.Values[len(e.Values)-1], nil
}

// WorstCase is the worst-case-scenario criterion of the heterogeneous-network
// placement literature: minimize the largest posterior variance over the
// reconstruction points — here the critical nodes, max_k φ_kᵀ M⁻¹ φ_k with
// φ_k the node's target loading (Problem.TargetLoad) — not just the average.
// Each step evaluates every candidate's effect on that max through the
// Sherman–Morrison identity (diag drop (φ_kᵀM⁻¹ψ_s)²/(1+ψ_sᵀM⁻¹ψ_s) per node
// k), picking the sensor that lowers the worst node the most. Complexity
// O(M·K·r) per step.
//
// Unlike the optimality criteria, WorstCase seeds its information matrix with
// a substantive prior (wcsPrior, not the near-zero infoEps): with a tiny seed
// every not-yet-observed direction carries variance ~1/ε, the max is
// astronomical no matter what one sensor does, and the greedy chases
// meaningless differences between astronomical numbers — in practice it
// clusters sensors around whichever node happens to lead. The prior bounds
// unexplored directions so covering a new direction competes fairly with
// polishing an observed one.
type WorstCase struct{}

// wcsPrior scales the WorstCase information seed relative to the mean squared
// basis-row norm (a unit-ball coefficient prior in row-norm units).
const wcsPrior = 1e-2

// wcsMaxSweeps caps the swap-polish passes; convergence is typically 2–3.
const wcsMaxSweeps = 8

// Name returns "worstcase".
func (WorstCase) Name() string { return "worstcase" }

// Select runs the greedy min-max variance reduction.
func (WorstCase) Select(p *Problem, q int) ([]int, error) {
	if err := p.checkBudget(q); err != nil {
		return nil, err
	}
	m, k := p.Psi.Rows(), p.TargetLoad.Rows()
	st := newInfoStateEps(p.Psi, wcsPrior)
	chosen := make([]bool, m)
	sel := make([]int, 0, q)
	// diag[k] = φ_kᵀ M⁻¹ φ_k, the current posterior variance proxy at node k.
	diag := make([]float64, k)
	refreshDiag := func() {
		for i := 0; i < k; i++ {
			row := p.TargetLoad.Row(i)
			diag[i] = mat.Dot(row, mat.MulVec(st.inv, row))
		}
	}
	refreshDiag()
	proj := make([]float64, k)
	// bestAdd scans the unchosen candidates for the one whose addition
	// minimizes the resulting max node variance; ties within a relative
	// margin fall back to total variance (A-optimality over the nodes), so
	// the pick stays meaningful when no candidate can move the worst node.
	bestAdd := func() int {
		best := -1
		bestMax, bestSum := math.Inf(1), math.Inf(1)
		for s := 0; s < m; s++ {
			if chosen[s] {
				continue
			}
			ps := p.Psi.Row(s)
			u := mat.MulVec(st.inv, ps)
			denom := 1 + mat.Dot(ps, u)
			// proj[k] = φ_kᵀ M⁻¹ ψ_s for every node k in one pass.
			copy(proj, mat.MulVec(p.TargetLoad, u))
			worst, sum := 0.0, 0.0
			for i := 0; i < k; i++ {
				v := diag[i] - proj[i]*proj[i]/denom
				sum += v
				if v > worst {
					worst = v
				}
			}
			if best < 0 || worst < bestMax*(1-1e-9) ||
				(worst <= bestMax*(1+1e-9) && sum < bestSum) {
				best, bestMax, bestSum = s, worst, sum
			}
		}
		return best
	}
	for len(sel) < q {
		best := bestAdd()
		chosen[best] = true
		sel = append(sel, best)
		st.add(p.Psi.Row(best), 1)
		refreshDiag()
	}
	// Swap polish: greedy min-max is myopic (the objective is not
	// submodular), so sweep the selection, pull each sensor out and reinsert
	// the best available one, until a full sweep changes nothing.
	for sweep := 0; sweep < wcsMaxSweeps; sweep++ {
		improved := false
		for si, s := range sel {
			st.add(p.Psi.Row(s), -1) // Sherman–Morrison downdate
			chosen[s] = false
			refreshDiag()
			best := bestAdd()
			chosen[best] = true
			sel[si] = best
			st.add(p.Psi.Row(best), 1)
			refreshDiag()
			if best != s {
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return ascending(sel), nil
}

// MaxPosteriorVariance returns max_k φ_kᵀ(ε·I + Σ_{s∈sel} ψ_sψ_sᵀ)⁻¹φ_k over
// the rows of phi — the WorstCase objective (including its wcsPrior seed)
// when phi is the target-loading matrix — for tests and reporting. sel
// indexes rows of psi.
func MaxPosteriorVariance(psi, phi *mat.Matrix, sel []int) float64 {
	st := newInfoStateEps(psi, wcsPrior)
	for _, s := range sel {
		st.add(psi.Row(s), 1)
	}
	worst := 0.0
	for i := 0; i < phi.Rows(); i++ {
		row := phi.Row(i)
		if v := mat.Dot(row, mat.MulVec(st.inv, row)); v > worst {
			worst = v
		}
	}
	return worst
}
