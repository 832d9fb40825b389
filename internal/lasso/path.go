package lasso

// This file implements the regularization-path layer over the two solvers of
// lasso.go: one Gram computation shared across every path point, warm starts
// carried between points, and group-level safe screening that drops candidate
// columns whose optimal group norm is provably zero before the solver runs.
//
// Screening follows the gap-safe sphere test (El Ghaoui et al., "Safe Feature
// Elimination"; Ndiaye et al., "Gap Safe Screening Rules"). For the penalized
// problem min ½‖G−βZ‖_F² + μ Σ‖β_m‖₂ the Fenchel dual is
//
//	max_Θ ½‖G‖_F² − ½‖G − μΘ‖_F²   s.t.  ‖Θ z_mᵀ‖₂ ≤ 1 ∀m,
//
// with the optimum at Θ* = R*/μ (R = G − βZ the residual). Any primal β and
// feasible dual Θ give a duality gap bounding ‖Θ* − Θ‖_F ≤ √(2·gap)/μ, so
//
//	‖Θ z_mᵀ‖₂ + √(2·gap)/μ · ‖z_m‖₂ < 1  ⟹  β*_m = 0.
//
// Every quantity is computable from the Gram statistics alone: the dual point
// is the scaled residual Θ = R/max(μ, max_m ‖R z_mᵀ‖), the correlations
// R Zᵀ = GZᵀ − β·ZZᵀ come from one matrix multiply, and ‖R‖_F² expands over
// ZZᵀ and GZᵀ. The constrained form has no fixed μ, so its screen is the
// sequential heuristic (groups inactive at a larger budget stay inactive as
// the budget shrinks); both forms finish with an exact KKT verification of
// every screened-out group against the solved reduced problem, un-screening
// violators and re-solving, so the returned solution provably satisfies the
// full problem's optimality conditions regardless of what the screen dropped.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"voltsense/internal/mat"
)

// PathStats reports what the screening layer did at one path point.
type PathStats struct {
	Screened int // candidate groups dropped before the solve
	Kept     int // groups handed to the solver
	Resolves int // KKT-safeguard re-solves (screened group re-admitted)
}

// screenMargin is the fraction of the warm-start multiplier below which the
// sequential constrained-path heuristic drops an inactive group. It only
// trades solve time (a dropped group that comes back costs a safeguard
// re-solve); correctness is enforced by the KKT verification either way.
const screenMargin = 0.9

// PathSolver solves a sequence of group-lasso instances on one dataset,
// sharing the Gram statistics across every solve and warm-starting each point
// from the previous solution. It is not safe for concurrent use.
type PathSolver struct {
	gr   *gram
	k, m int
	opt  Options
	lip  float64 // σ_max(ZZᵀ) of the full problem; valid step for any subset

	warm       *mat.Matrix // last converged solution, nil before the first solve
	warmNorms  []float64   // group norms of warm
	prevLambda float64     // last constrained budget solved (screening direction)
	hasPrev    bool

	znorms []float64   // ‖z_m‖₂ = √(ZZᵀ)_mm
	muMax  float64     // max_m ‖(GZᵀ)_m‖₂: the smallest μ zeroing every group
	bz     *mat.Matrix // scratch: β·ZZᵀ
	corr   *mat.Matrix // scratch: GZᵀ − β·ZZᵀ
	cnorms []float64   // per-group correlation norms ‖(R Zᵀ)_m‖₂
}

// NewPathSolver prepares a path solver for the instance (Z, G): Z is M-by-N
// (normalized candidates), G is K-by-N (normalized outputs). The Gram
// products and Lipschitz estimate are computed once, here.
func NewPathSolver(z, g *mat.Matrix, opt Options) *PathSolver {
	checkShapes(z, g)
	k, m := g.Rows(), z.Rows()
	gr := newGram(z, g)
	ps := &PathSolver{
		gr:     gr,
		k:      k,
		m:      m,
		opt:    opt.withDefaults(),
		lip:    gr.lipschitz(),
		znorms: make([]float64, m),
		bz:     mat.Zeros(k, m),
		corr:   mat.Zeros(k, m),
		cnorms: make([]float64, m),
	}
	for j := 0; j < m; j++ {
		ps.znorms[j] = math.Sqrt(gr.zzt.At(j, j))
	}
	groupNormsInto(ps.cnorms, gr.gzt)
	for _, n := range ps.cnorms {
		if n > ps.muMax {
			ps.muMax = n
		}
	}
	return ps
}

// MuMax returns max_m ‖(GZᵀ)_m‖₂ — the smallest penalized multiplier μ at
// which every group is zero, the natural upper bisection bound.
func (ps *PathSolver) MuMax() float64 { return ps.muMax }

// correlationsAt fills ps.corr with GZᵀ − β·ZZᵀ and ps.cnorms with its
// per-group column norms. beta may be nil for the cold (zero) point.
func (ps *PathSolver) correlationsAt(beta *mat.Matrix) {
	if beta == nil || betaIsZero(beta) {
		copy(ps.corr.Data(), ps.gr.gzt.Data())
	} else {
		mat.MulInto(ps.bz, beta, ps.gr.zzt)
		mat.SubInto(ps.corr, ps.gr.gzt, ps.bz)
	}
	groupNormsInto(ps.cnorms, ps.corr)
}

// residualStats returns ‖R‖_F² and ⟨G, R⟩ for R = G − βZ, from the Gram
// statistics. It requires ps.bz to already hold β·ZZᵀ (as left behind by
// correlationsAt); for a zero β both reduce to ‖G‖_F².
func (ps *PathSolver) residualStats(beta *mat.Matrix) (rr, gdotr float64) {
	if beta == nil || betaIsZero(beta) {
		return ps.gr.trGG, ps.gr.trGG
	}
	var cross, quad float64
	bd, gd, qd := beta.Data(), ps.gr.gzt.Data(), ps.bz.Data()
	for i, v := range bd {
		cross += v * gd[i]
		quad += v * qd[i]
	}
	rr = ps.gr.trGG - 2*cross + quad
	if rr < 0 {
		rr = 0
	}
	return rr, ps.gr.trGG - cross
}

// setWarm records the converged full-size solution as the next warm start.
func (ps *PathSolver) setWarm(beta *mat.Matrix) {
	ps.warm = beta.Clone()
	if ps.warmNorms == nil {
		ps.warmNorms = make([]float64, ps.m)
	}
	groupNormsInto(ps.warmNorms, ps.warm)
}

// zeroResult is the trivial solution (λ = 0 or μ ≥ μ_max).
func (ps *PathSolver) zeroResult() *Result {
	beta := mat.Zeros(ps.k, ps.m)
	return &Result{
		Beta:       beta,
		GroupNorms: make([]float64, ps.m),
		Iters:      0,
		Objective:  0.5 * ps.gr.trGG,
	}
}

// screenPenalized runs the gap-safe sphere test at multiplier mu against the
// current warm point and returns the kept group indices (ascending).
func (ps *PathSolver) screenPenalized(mu float64) []int {
	keep := make([]int, 0, ps.m)
	if mu <= 0 {
		for j := 0; j < ps.m; j++ {
			keep = append(keep, j)
		}
		return keep
	}
	ps.correlationsAt(ps.warm)
	rr, gdotr := ps.residualStats(ps.warm)
	budget := 0.0
	if ps.warm != nil {
		for _, n := range ps.warmNorms {
			budget += n
		}
	}
	c := mu
	for _, n := range ps.cnorms {
		if n > c {
			c = n
		}
	}
	// Primal at the warm point, dual at the scaled residual Θ = R/c.
	primal := 0.5*rr + mu*budget
	s := mu / c
	dual := s*gdotr - 0.5*s*s*rr
	gap := primal - dual
	if gap < 0 {
		gap = 0
	}
	r := math.Sqrt(2*gap) / mu
	for j := 0; j < ps.m; j++ {
		if ps.cnorms[j]/c+r*ps.znorms[j] < 1 {
			continue // provably zero at this μ
		}
		keep = append(keep, j)
	}
	return keep
}

// screenConstrained applies the sequential heuristic for a descending budget
// path: groups that were inactive at the previous (larger) budget and whose
// correlation sits a margin below the warm point's active-set multiplier are
// presumed to stay inactive. Unsafe in isolation — the caller's KKT
// verification re-admits anything dropped wrongly.
func (ps *PathSolver) screenConstrained(lambda float64) []int {
	keep := make([]int, 0, ps.m)
	if ps.warm == nil || !ps.hasPrev || lambda > ps.prevLambda {
		for j := 0; j < ps.m; j++ {
			keep = append(keep, j)
		}
		return keep
	}
	ps.correlationsAt(ps.warm)
	muHat := 0.0
	for _, n := range ps.cnorms {
		if n > muHat {
			muHat = n
		}
	}
	for j := 0; j < ps.m; j++ {
		if ps.warmNorms[j] == 0 && ps.cnorms[j] < screenMargin*muHat {
			continue
		}
		keep = append(keep, j)
	}
	return keep
}

// scatter expands a reduced K-by-len(keep) solution onto the full candidate
// set, zero everywhere outside keep.
func (ps *PathSolver) scatter(reduced *mat.Matrix, keep []int) *mat.Matrix {
	full := mat.Zeros(ps.k, ps.m)
	for i := 0; i < ps.k; i++ {
		dst, src := full.Row(i), reduced.Row(i)
		for jj, j := range keep {
			dst[j] = src[jj]
		}
	}
	return full
}

// warmReduced restricts the warm start to the kept groups (zeros when cold).
func (ps *PathSolver) warmReduced(keep []int) *mat.Matrix {
	if ps.warm == nil {
		return mat.Zeros(ps.k, len(keep))
	}
	return ps.warm.SelectCols(keep)
}

// subGram restricts the Gram statistics to the kept groups, reusing the full
// set unchanged when nothing was screened.
func (ps *PathSolver) subGram(keep []int) *gram {
	if len(keep) == ps.m {
		return ps.gr
	}
	return &gram{
		zzt:  ps.gr.zzt.SelectRows(keep).SelectCols(keep),
		gzt:  ps.gr.gzt.SelectCols(keep),
		trGG: ps.gr.trGG,
	}
}

// mergeViolations appends the violating screened groups to keep, ascending.
func mergeViolations(keep, viol []int) []int {
	merged := append(append([]int(nil), keep...), viol...)
	sort.Ints(merged)
	return merged
}

// SolveConstrained solves the paper's Eq. 12 at budget lambda, warm-started
// from the previous solve and screened when the path is descending. On a
// fresh solver it is a cold solve: FISTA from zero over every group. A later
// result is equivalent to that cold solve at the same options: screened
// groups are verified against the KKT conditions of the full problem and
// re-admitted (with a re-solve) on any violation.
func (ps *PathSolver) SolveConstrained(lambda float64) (*Result, PathStats, error) {
	if lambda < 0 {
		panic(fmt.Sprintf("lasso: negative lambda %v", lambda))
	}
	var stats PathStats
	if lambda == 0 {
		res := ps.zeroResult()
		ps.setWarm(res.Beta)
		ps.prevLambda, ps.hasPrev = 0, true
		return res, stats, nil
	}
	keep := ps.screenConstrained(lambda)
	var full *mat.Matrix
	var iters int
	var solveErr error
	for {
		stats.Screened = ps.m - len(keep)
		stats.Kept = len(keep)
		red, it, err := ps.fistaReduced(keep, lambda)
		iters = it
		if err != nil {
			solveErr = err
		}
		full = ps.scatter(red, keep)
		viol := ps.kktConstrainedViolations(full, keep)
		if len(viol) == 0 {
			break
		}
		keep = mergeViolations(keep, viol)
		stats.Resolves++
	}
	res := &Result{Beta: full, GroupNorms: groupNorms(full), Iters: iters,
		Objective: ps.gr.objective(full)}
	ps.setWarm(full)
	ps.prevLambda, ps.hasPrev = lambda, true
	return res, stats, solveErr
}

// SolvePenalized solves the Lagrangian form at multiplier mu, warm-started
// and gap-safe screened. Safe for arbitrary μ orderings (bisection included):
// the screen is recomputed from the current warm point at each call.
func (ps *PathSolver) SolvePenalized(mu float64) (*Result, PathStats, error) {
	if mu < 0 {
		panic(fmt.Sprintf("lasso: negative mu %v", mu))
	}
	var stats PathStats
	if mu >= ps.muMax {
		stats.Screened = ps.m
		res := ps.zeroResult()
		ps.setWarm(res.Beta)
		return res, stats, nil
	}
	keep := ps.screenPenalized(mu)
	var full *mat.Matrix
	var iters int
	var solveErr error
	for {
		stats.Screened = ps.m - len(keep)
		stats.Kept = len(keep)
		var red *mat.Matrix
		var it int
		if len(keep) == 0 {
			red, it = mat.Zeros(ps.k, 0), 0
		} else {
			r, err := solvePenalizedGram(ps.subGram(keep), mu, ps.opt, ps.warmReduced(keep))
			if err != nil && !errors.Is(err, ErrDidNotConverge) {
				return nil, stats, err
			}
			if err != nil {
				solveErr = err
			}
			red, it = r.Beta, r.Iters
		}
		iters = it
		full = ps.scatter(red, keep)
		viol := ps.kktPenalizedViolations(full, keep, mu)
		if len(viol) == 0 {
			break
		}
		keep = mergeViolations(keep, viol)
		stats.Resolves++
	}
	res := &Result{Beta: full, GroupNorms: groupNorms(full), Iters: iters,
		Objective: ps.gr.objective(full)}
	ps.setWarm(full)
	return res, stats, solveErr
}

// fistaReduced runs the constrained FISTA on the kept groups, warm-started,
// reusing the full problem's Lipschitz bound (σ_max of a principal submatrix
// never exceeds the full matrix's, so the step stays valid).
func (ps *PathSolver) fistaReduced(keep []int, lambda float64) (*mat.Matrix, int, error) {
	st := newFistaState(ps.subGram(keep), ps.warmReduced(keep), lambda, 1/ps.lip)
	var iters int
	for iters = 1; iters <= ps.opt.MaxIter; iters++ {
		if st.iterate() < ps.opt.Tol {
			break
		}
	}
	if iters > ps.opt.MaxIter {
		return st.beta, ps.opt.MaxIter, ErrDidNotConverge
	}
	return st.beta, iters, nil
}

// kktConstrainedViolations checks every screened-out group of a solved
// reduced problem against the full problem's stationarity conditions: at the
// optimum the active-set multiplier μ̂ = max_m ‖(R Zᵀ)_m‖₂ over kept groups
// bounds the correlation of every zero group. Screened groups exceeding μ̂
// (beyond solver-tolerance slack) are returned for re-admission.
func (ps *PathSolver) kktConstrainedViolations(full *mat.Matrix, keep []int) []int {
	if len(keep) == ps.m {
		return nil
	}
	ps.correlationsAt(full)
	kept := make([]bool, ps.m)
	muHat := 0.0
	for _, j := range keep {
		kept[j] = true
		if ps.cnorms[j] > muHat {
			muHat = ps.cnorms[j]
		}
	}
	slack := 1e-7 * (muHat + ps.muMax)
	var viol []int
	for j := 0; j < ps.m; j++ {
		if !kept[j] && ps.cnorms[j] > muHat+slack {
			viol = append(viol, j)
		}
	}
	return viol
}

// kktPenalizedViolations verifies the screened-out groups of a penalized
// solve: a zero group is optimal iff ‖(R Zᵀ)_m‖₂ ≤ μ. The gap-safe test makes
// violations impossible in exact arithmetic; this guards finite precision.
func (ps *PathSolver) kktPenalizedViolations(full *mat.Matrix, keep []int, mu float64) []int {
	if len(keep) == ps.m {
		return nil
	}
	ps.correlationsAt(full)
	kept := make([]bool, ps.m)
	for _, j := range keep {
		kept[j] = true
	}
	slack := 1e-9 * (mu + ps.muMax)
	var viol []int
	for j := 0; j < ps.m; j++ {
		if !kept[j] && ps.cnorms[j] > mu+slack {
			viol = append(viol, j)
		}
	}
	return viol
}

// SelectCount bisects the penalized multiplier μ over [0, MuMax] for exactly
// q groups whose norm exceeds threshold — the count-targeted form of Steps
// 4–5. The count is monotone in μ, so at most 40 midpoints are solved, each
// warm-started from the last. The search keeps the tightest solution with
// at least q groups and stops as soon as one has exactly q; when none does,
// the q largest group norms of that solution are kept. It returns the
// selection (ascending), the solution it was cut from and that solution's μ.
// A q outside 1…M is an error.
func (ps *PathSolver) SelectCount(q int, threshold float64) (sel []int, res *Result, mu float64, err error) {
	if q < 1 || q > ps.m {
		return nil, nil, 0, fmt.Errorf("lasso: count %d out of range 1..%d", q, ps.m)
	}
	lo, hi := 0.0, ps.muMax // count(lo) = max, count(hi) = 0
	bestCount := -1
	for it := 0; it < 40; it++ {
		mid := (lo + hi) / 2
		r, _, err := ps.SolvePenalized(mid)
		if err != nil && !errors.Is(err, ErrDidNotConverge) {
			return nil, nil, mid, err
		}
		n := len(r.Select(threshold))
		if n >= q && (bestCount < 0 || n < bestCount) {
			res, bestCount, mu = r, n, mid
		}
		if n == q {
			break
		}
		if n > q {
			lo = mid
		} else {
			hi = mid
		}
	}
	if res == nil {
		return nil, nil, 0, fmt.Errorf("lasso: could not reach %d groups", q)
	}
	sel = res.Select(threshold)
	if len(sel) > q {
		// Keep the q strongest groups.
		sort.Slice(sel, func(a, b int) bool { return res.GroupNorms[sel[a]] > res.GroupNorms[sel[b]] })
		sel = sel[:q]
		sort.Ints(sel)
	}
	return sel, res, mu, nil
}
