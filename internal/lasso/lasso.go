// Package lasso implements the group-lasso solvers behind the paper's
// sensor-selection step (Eq. 12):
//
//	min_β ‖G − β·Z‖_F   s.t.   Σ_m ‖β_m‖₂ ≤ λ
//
// with Z the M-by-N normalized sensor-candidate samples, G the K-by-N
// normalized block-voltage samples, and β_m the m-th column of the K-by-M
// coefficient matrix — the group tying candidate m to every output.
//
// Every placement solves through one PathSolver (path.go), which holds the
// Gram statistics of one instance:
//
//   - PathSolver.SolveConstrained is the production path: accelerated
//     projected gradient (FISTA) on the constrained problem itself, using
//     the exact Euclidean projection onto the group-norm ball (an ℓ₁-ball
//     projection on the vector of group norms, Duchi et al. 2008), so its λ
//     is exactly the paper's λ. A fresh solver's first solve starts from
//     zero without screening; later solves are warm-started and screened.
//   - PathSolver.SolvePenalized runs block coordinate descent on the
//     Lagrangian form ½‖G−βZ‖_F² + μ Σ‖β_m‖₂ with closed-form group
//     soft-threshold updates, and PathSolver.SelectCount bisects its μ for
//     a target sensor count.
//
// The package-level SolvePenalized and SolvePenalizedForBudget are the same
// block coordinate descent from a cold start on every call: the plain
// per-output lasso ablation (K = 1) rests on them, and the test suite uses
// them to check that the two formulations trace the same solution path.
//
// The paper reformulates Eq. 12 as an SOCP for an interior-point solver;
// first-order methods reach the same KKT points and need no cone machinery,
// which matters for a dependency-free build.
package lasso

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"voltsense/internal/mat"
)

// ErrDidNotConverge is returned when a solver exhausts its iteration budget
// before reaching the requested tolerance.
var ErrDidNotConverge = errors.New("lasso: solver did not converge")

// Options tunes the iterative solvers. The zero value selects defaults.
type Options struct {
	MaxIter int     // default 2000
	Tol     float64 // relative coefficient-change tolerance, default 1e-7
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 2000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	return o
}

// Result is a solved group-lasso instance.
type Result struct {
	Beta       *mat.Matrix // K-by-M coefficients
	GroupNorms []float64   // ‖β_m‖₂ per candidate column
	Iters      int
	Objective  float64 // ½‖G − βZ‖_F²
}

// Select returns the candidate indices whose group norm exceeds the
// threshold T, in ascending order — the paper's Step 5.
func (r *Result) Select(t float64) []int {
	var idx []int
	for m, n := range r.GroupNorms {
		if n > t {
			idx = append(idx, m)
		}
	}
	return idx
}

func checkShapes(z, g *mat.Matrix) {
	if z.Cols() != g.Cols() {
		panic(fmt.Sprintf("lasso: Z has %d samples, G has %d", z.Cols(), g.Cols()))
	}
}

// groupNorms computes ‖β_m‖₂ for every column of beta.
func groupNorms(beta *mat.Matrix) []float64 {
	out := make([]float64, beta.Cols())
	groupNormsInto(out, beta)
	return out
}

// groupNormsInto fills dst (length beta.Cols()) with ‖β_m‖₂ per column.
func groupNormsInto(dst []float64, beta *mat.Matrix) {
	k, m := beta.Rows(), beta.Cols()
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < k; i++ {
		row := beta.Row(i)
		for j := 0; j < m; j++ {
			dst[j] += row[j] * row[j]
		}
	}
	for j := range dst {
		dst[j] = math.Sqrt(dst[j])
	}
}

// ProjectL1 projects the non-negative vector v onto {x ≥ 0 : Σx ≤ radius}
// in Euclidean norm (Duchi et al., "Efficient projections onto the
// ℓ₁-ball"). v is not modified.
func ProjectL1(v []float64, radius float64) []float64 {
	for _, x := range v {
		if x < 0 {
			panic("lasso: ProjectL1 requires non-negative input")
		}
	}
	out := make([]float64, len(v))
	projectL1Into(out, make([]float64, len(v)), v, radius)
	return out
}

// projectL1Into is the allocation-free core of ProjectL1: it fills out with
// the projection of the non-negative vector v, using scratch (same length)
// as sort workspace. out may alias v.
func projectL1Into(out, scratch, v []float64, radius float64) {
	if radius < 0 {
		panic(fmt.Sprintf("lasso: negative radius %v", radius))
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	if sum <= radius {
		copy(out, v)
		return
	}
	// Find θ with Σ max(v_i − θ, 0) = radius via the sorted prefix rule,
	// walking the ascending sort from the back for descending order.
	copy(scratch, v)
	slices.Sort(scratch)
	var cum, theta float64
	rho := -1
	for i := len(scratch) - 1; i >= 0; i-- {
		x := scratch[i]
		cnt := len(scratch) - i
		cum += x
		if x-(cum-radius)/float64(cnt) <= 0 {
			break // the active set is a prefix of the descending order
		}
		rho = cnt - 1
		theta = (cum - radius) / float64(cnt)
	}
	if rho < 0 {
		for i := range out {
			out[i] = 0 // radius == 0
		}
		return
	}
	for i, x := range v {
		if d := x - theta; d > 0 {
			out[i] = d
		} else {
			out[i] = 0
		}
	}
}

// projWS holds the scratch vectors of the group-ball projection so the FISTA
// loop can project every iterate without allocating.
type projWS struct {
	norms, proj, scratch []float64
}

func newProjWS(m int) *projWS {
	return &projWS{
		norms:   make([]float64, m),
		proj:    make([]float64, m),
		scratch: make([]float64, m),
	}
}

// projectGroupBall projects beta in place onto {β : Σ_m ‖β_m‖₂ ≤ radius}
// using the workspace buffers.
func (w *projWS) projectGroupBall(beta *mat.Matrix, radius float64) {
	groupNormsInto(w.norms, beta)
	sum := 0.0
	for _, n := range w.norms {
		sum += n
	}
	if sum <= radius {
		return // already inside the ball: projection is the identity
	}
	projectL1Into(w.proj, w.scratch, w.norms, radius)
	k, m := beta.Rows(), beta.Cols()
	scale := w.proj
	for j := range scale {
		if w.norms[j] == 0 {
			scale[j] = 0
		} else {
			scale[j] /= w.norms[j]
		}
	}
	for i := 0; i < k; i++ {
		row := beta.Row(i)
		for j := 0; j < m; j++ {
			row[j] *= scale[j]
		}
	}
}

// gram holds the sufficient statistics of a group-lasso instance: both
// solvers work entirely from ZZᵀ (M-by-M) and GZᵀ (K-by-M) — the
// "covariance trick" — so per-iteration cost is independent of the sample
// count N.
type gram struct {
	zzt  *mat.Matrix // Z Zᵀ
	gzt  *mat.Matrix // G Zᵀ
	trGG float64     // ‖G‖_F²
}

func newGram(z, g *mat.Matrix) *gram {
	f := g.FrobeniusNorm()
	// MulT walks both operands along contiguous rows — no transpose is ever
	// materialized, and the products parallelize across the mat worker pool.
	return &gram{zzt: mat.MulT(z, z), gzt: mat.MulT(g, z), trGG: f * f}
}

// objective returns ½‖G − βZ‖_F² from the Gram statistics:
// ½(trGG − 2·⟨β, GZᵀ⟩ + ⟨β, β·ZZᵀ⟩).
func (gr *gram) objective(beta *mat.Matrix) float64 {
	bz := mat.Mul(beta, gr.zzt)
	cross, quad := 0.0, 0.0
	bd, gd, qd := beta.Data(), gr.gzt.Data(), bz.Data()
	for i, v := range bd {
		cross += v * gd[i]
		quad += v * qd[i]
	}
	obj := 0.5 * (gr.trGG - 2*cross + quad)
	if obj < 0 {
		obj = 0 // guard against roundoff on near-exact fits
	}
	return obj
}

// lipschitz estimates σ_max(ZZᵀ) by power iteration on the Gram matrix.
func (gr *gram) lipschitz() float64 {
	m := gr.zzt.Rows()
	v := make([]float64, m)
	u := make([]float64, m)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(m))
	}
	est := 0.0
	for it := 0; it < 60; it++ {
		mat.MulVecInto(u, gr.zzt, v)
		nrm := mat.Norm2(u)
		if nrm == 0 {
			return 1 // Z is all zeros; any positive constant works
		}
		prev := est
		est = nrm
		for i := range v {
			v[i] = u[i] / nrm
		}
		if it > 4 && math.Abs(est-prev) < 1e-9*est {
			break
		}
	}
	return est
}

// fistaState is the preallocated workspace of one constrained solve: the
// iterate, momentum and gradient buffers are created once and reused every
// iteration, so the steady-state loop performs zero heap allocations.
type fistaState struct {
	gr     *gram
	lambda float64
	step   float64
	tk     float64

	beta *mat.Matrix // current iterate β_k
	next *mat.Matrix // scratch for β_{k+1}; swapped with beta each step
	y    *mat.Matrix // momentum point
	grad *mat.Matrix // y·ZZᵀ scratch
	proj *projWS
}

// newFistaState starts FISTA from beta (taken over as the first iterate) with
// the given step. A warm start may sit outside the ball; the first
// projection pulls it back, so feasibility holds from iteration one onward.
func newFistaState(gr *gram, beta *mat.Matrix, lambda, step float64) *fistaState {
	k, m := beta.Rows(), beta.Cols()
	st := &fistaState{
		gr:     gr,
		lambda: lambda,
		step:   step,
		tk:     1,
		beta:   beta,
		next:   mat.Zeros(k, m),
		grad:   mat.Zeros(k, m),
		proj:   newProjWS(m),
	}
	st.proj.projectGroupBall(beta, lambda)
	st.y = beta.Clone()
	return st
}

// iterate performs one accelerated projected-gradient step and returns the
// relative change ‖β_{k+1} − β_k‖_F / ‖β_{k+1}‖_F of the iterate. It does
// not allocate: every buffer lives in the workspace.
func (f *fistaState) iterate() float64 {
	// Gradient step at y: next = y − step·(y·ZZᵀ − GZᵀ), fused elementwise.
	mat.MulInto(f.grad, f.y, f.gr.zzt)
	gd, gzd := f.grad.Data(), f.gr.gzt.Data()
	yd, nd, bd := f.y.Data(), f.next.Data(), f.beta.Data()
	for i, gv := range gd {
		nd[i] = yd[i] - f.step*(gv-gzd[i])
	}
	f.proj.projectGroupBall(f.next, f.lambda)

	tNext := (1 + math.Sqrt(1+4*f.tk*f.tk)) / 2
	mom := (f.tk - 1) / tNext
	// y = next + mom*(next − beta), fused with the convergence statistics
	// ‖next − beta‖_F and ‖next‖_F.
	var diffSq, baseSq float64
	for i, nv := range nd {
		d := nv - bd[i]
		yd[i] = nv + mom*d
		diffSq += d * d
		baseSq += nv * nv
	}
	f.beta, f.next = f.next, f.beta
	f.tk = tNext

	base := math.Sqrt(baseSq)
	if base == 0 {
		base = 1
	}
	return math.Sqrt(diffSq) / base
}

// SolvePenalized solves the Lagrangian form
//
//	min_β ½‖G − βZ‖_F² + μ Σ_m ‖β_m‖₂
//
// by block coordinate descent with exact per-group updates. With K = 1 this
// is the classic lasso via coordinate descent.
func SolvePenalized(z, g *mat.Matrix, mu float64, opt Options) (*Result, error) {
	checkShapes(z, g)
	if mu < 0 {
		panic(fmt.Sprintf("lasso: negative mu %v", mu))
	}
	return solvePenalizedGram(newGram(z, g), mu, opt, mat.Zeros(g.Rows(), z.Rows()))
}

// solvePenalizedGram is the Gram-space core of SolvePenalized: it starts the
// block coordinate descent from beta (the warm start, taken over and returned
// inside the Result) and works entirely from the sufficient statistics, so a
// regularization path can reuse one Gram across every μ.
func solvePenalizedGram(gr *gram, mu float64, opt Options, beta *mat.Matrix) (*Result, error) {
	opt = opt.withDefaults()
	k, m := beta.Rows(), beta.Cols()

	// s = β·ZZᵀ, maintained incrementally as groups change; the group-j
	// statistic is then u_i = (GZᵀ)[i][j] − s[i][j] + β[i][j]·(ZZᵀ)[j][j].
	s := mat.Zeros(k, m)
	if !betaIsZero(beta) {
		mat.MulInto(s, beta, gr.zzt)
	}

	zsq := make([]float64, m)
	for j := 0; j < m; j++ {
		zsq[j] = gr.zzt.At(j, j)
	}

	u := make([]float64, k)
	var iters int
	for iters = 1; iters <= opt.MaxIter; iters++ {
		maxChange, maxCoef := 0.0, 0.0
		for j := 0; j < m; j++ {
			if zsq[j] == 0 {
				continue // constant-zero feature can never be active
			}
			for i := 0; i < k; i++ {
				u[i] = gr.gzt.At(i, j) - s.At(i, j) + beta.At(i, j)*zsq[j]
			}
			un := mat.Norm2(u)
			var scale float64
			if un > mu {
				scale = (1 - mu/un) / zsq[j]
			}
			zztRow := gr.zzt.Row(j)
			for i := 0; i < k; i++ {
				old := beta.At(i, j)
				nv := scale * u[i]
				if nv != old {
					d := nv - old
					// s[i][:] += d * (ZZᵀ)[j][:]
					si := s.Row(i)
					for c, zc := range zztRow {
						si[c] += d * zc
					}
					beta.Set(i, j, nv)
					if ad := math.Abs(d); ad > maxChange {
						maxChange = ad
					}
				}
				if av := math.Abs(nv); av > maxCoef {
					maxCoef = av
				}
			}
		}
		if maxCoef == 0 {
			maxCoef = 1
		}
		if maxChange/maxCoef < opt.Tol {
			break
		}
	}
	r := &Result{Beta: beta, GroupNorms: groupNorms(beta), Iters: iters,
		Objective: gr.objective(beta)}
	if iters > opt.MaxIter {
		r.Iters = opt.MaxIter
		return r, ErrDidNotConverge
	}
	return r, nil
}

// betaIsZero reports whether every coefficient is exactly zero (the cold
// start), letting warm-started solves skip the initial β·ZZᵀ product.
func betaIsZero(beta *mat.Matrix) bool {
	for _, v := range beta.Data() {
		if v != 0 {
			return false
		}
	}
	return true
}

// BudgetOf returns Σ_m ‖β_m‖₂ of a solution — the quantity the paper's λ
// constrains.
func BudgetOf(r *Result) float64 {
	s := 0.0
	for _, n := range r.GroupNorms {
		s += n
	}
	return s
}

// SolvePenalizedForBudget finds, by bisection on μ, a penalized solution
// whose group-norm budget Σ‖β_m‖₂ matches the constrained radius lambda to
// within rel tolerance. Every midpoint is a cold solve. It is the duality
// bridge the tests use to cross-check the two formulations, and the
// per-output budget search of the plain-lasso ablation.
func SolvePenalizedForBudget(z, g *mat.Matrix, lambda, rel float64, opt Options) (*Result, float64, error) {
	if rel <= 0 {
		rel = 1e-3
	}
	// μ = 0 gives the (unpenalized) maximal budget; μ ≥ μ_max gives zero.
	// μ_max = max_m ‖G z_mᵀ‖₂.
	k := g.Rows()
	muMax := 0.0
	u := make([]float64, k)
	for j := 0; j < z.Rows(); j++ {
		zj := z.Row(j)
		for i := 0; i < k; i++ {
			u[i] = mat.Dot(g.Row(i), zj)
		}
		if n := mat.Norm2(u); n > muMax {
			muMax = n
		}
	}
	if muMax == 0 {
		r, err := SolvePenalized(z, g, 0, opt)
		return r, 0, err
	}
	lo, hi := 0.0, muMax // budget(lo) max, budget(hi) = 0
	var best *Result
	var bestMu float64
	for it := 0; it < 60; it++ {
		mu := (lo + hi) / 2
		r, err := SolvePenalized(z, g, mu, opt)
		if err != nil && !errors.Is(err, ErrDidNotConverge) {
			return nil, mu, err
		}
		b := BudgetOf(r)
		best, bestMu = r, mu
		if math.Abs(b-lambda) <= rel*lambda {
			return r, mu, nil
		}
		if b > lambda {
			lo = mu // too much budget → penalize harder
		} else {
			hi = mu
		}
	}
	return best, bestMu, nil
}
