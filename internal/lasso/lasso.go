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

	"voltsense/internal/mat"
	"voltsense/internal/simd"
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
// as heap workspace. out may alias v.
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
	theta, ok := l1Threshold(scratch, v, radius)
	for i, x := range v {
		if d := x - theta; ok && d > 0 {
			out[i] = d
		} else {
			out[i] = 0 // radius == 0 leaves nothing active
		}
	}
}

// l1Threshold finds θ with Σ max(v_i − θ, 0) = radius for a non-negative v
// whose sum exceeds radius, by the sorted prefix rule: walk v in descending
// order while the next value stays above the running threshold. The
// descending order comes from a max-heap built in scratch (same length as
// v), so only the active values and one more are ever ordered; equal values
// are interchangeable, so the walk adds the same numbers in the same order a
// full sort would. ok is false when no value is active (radius 0).
func l1Threshold(scratch, v []float64, radius float64) (theta float64, ok bool) {
	h := scratch[:len(v)]
	copy(h, v)
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	cum := 0.0
	for cnt := 1; len(h) > 0; cnt++ {
		x := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
		cum += x
		if x-(cum-radius)/float64(cnt) <= 0 {
			break // the active set is a prefix of the descending order
		}
		theta, ok = (cum-radius)/float64(cnt), true
	}
	return theta, ok
}

// siftDown restores the max-heap order of h below index i.
func siftDown(h []float64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[c] <= h[i] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// projWS holds the scratch vectors of the group-ball projection so the FISTA
// loop can project every iterate without allocating, and the ascending
// column support of the last projection. vec, simd.AVX2() at construction,
// selects the AVX2 kernels of the scale pass and of the FISTA row pass
// that owns the workspace; the benchmarks of their Go twins clear it.
type projWS struct {
	norms, proj, scratch []float64
	support              []int
	vec                  bool
}

func newProjWS(m int) *projWS {
	return &projWS{
		vec:     simd.AVX2(),
		norms:   make([]float64, m),
		proj:    make([]float64, m),
		scratch: make([]float64, m),
		support: make([]int, 0, m),
	}
}

// projectGroupBall projects beta in place onto {β : Σ_m ‖β_m‖₂ ≤ radius}
// using the workspace buffers.
func (w *projWS) projectGroupBall(beta *mat.Matrix, radius float64) {
	groupNormsInto(w.norms, beta)
	w.scaleOntoBall(beta, radius)
}

// scaleOntoBall finishes projectGroupBall once w.norms holds beta's column
// norms: beta is scaled in place onto the ball, and w.support receives the
// ascending columns that may hold a nonzero afterwards. Every column
// outside it is exactly zero.
func (w *projWS) scaleOntoBall(beta *mat.Matrix, radius float64) {
	sum := 0.0
	for _, n := range w.norms {
		sum += n
	}
	w.support = w.support[:0]
	if sum <= radius {
		// Inside the ball: the projection is the identity. A column whose
		// entries are too small to square to a nonzero still counts.
		for j, n := range w.norms {
			if n != 0 || columnNonzero(beta, j) {
				w.support = append(w.support, j)
			}
		}
		return
	}
	theta, ok := l1Threshold(w.scratch, w.norms, radius)
	scale := w.proj
	for j, n := range w.norms {
		scale[j] = 0
		if d := n - theta; ok && d > 0 && n != 0 {
			scale[j] = d / n
			w.support = append(w.support, j)
		}
	}
	if w.vec {
		scaleRowsAVX2(beta.Data(), scale)
	} else {
		scaleRows(beta.Data(), scale)
	}
}

// scaleRows multiplies every row of the row-major matrix data, whose rows
// have len(scale) entries, by scale elementwise. It is the portable path
// and the oracle of scaleRowsAVX2.
func scaleRows(data, scale []float64) {
	m := len(scale)
	for i := 0; i+m <= len(data); i += m {
		row := data[i : i+m]
		for j, sc := range scale {
			row[j] *= sc
		}
	}
}

// columnNonzero reports whether column j of beta holds a nonzero entry.
func columnNonzero(beta *mat.Matrix, j int) bool {
	for i := 0; i < beta.Rows(); i++ {
		if beta.At(i, j) != 0 {
			return true
		}
	}
	return false
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
//
// It also keeps the ascending column supports of the iterate and the
// momentum point. After the first few iterations only a handful of the M
// groups are nonzero, and an iteration touches the zero ones only where
// the answer needs them: the gradient y·ZZᵀ is built from y's support
// alone, and the momentum and convergence pass runs over the union of
// supports. Every result equals the dense computation's.
type fistaState struct {
	gr     *gram
	lambda float64
	step   float64
	tk     float64

	beta *mat.Matrix // current iterate β_k
	next *mat.Matrix // scratch for β_{k+1}; swapped with beta each step
	y    *mat.Matrix // momentum point
	grad []float64   // one row of y·ZZᵀ
	proj *projWS

	bSup, ySup, union []int     // supports of beta and y; scratch
	groups            []zzGroup // mulZZt's plan for y's support
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
		grad:   make([]float64, m),
		proj:   newProjWS(m),
		bSup:   make([]int, 0, m),
		ySup:   make([]int, 0, m),
		union:  make([]int, 0, m),
		groups: make([]zzGroup, 0, m),
	}
	st.proj.projectGroupBall(beta, lambda)
	st.bSup = append(st.bSup, st.proj.support...)
	st.ySup = append(st.ySup, st.proj.support...)
	st.y = beta.Clone()
	return st
}

// iterate performs one accelerated projected-gradient step and returns the
// relative change ‖β_{k+1} − β_k‖_F / ‖β_{k+1}‖_F of the iterate. It does
// not allocate: every buffer lives in the workspace.
func (f *fistaState) iterate() float64 {
	k, m := f.y.Rows(), f.y.Cols()
	yd, nd, bd := f.y.Data(), f.next.Data(), f.beta.Data()
	gzd := f.gr.gzt.Data()
	// Gradient step at y, next = y − step·(y·ZZᵀ − GZᵀ), one row at a time,
	// fused with the column norms of next in groupNormsInto's row order.
	norms := f.proj.norms
	for j := range norms {
		norms[j] = 0
	}
	f.planZZt()
	if f.proj.vec {
		km := k * m
		fistaRowsAVX2(nd[:km], norms[:m], yd[:km], gzd[:km], f.gr.zzt.Data()[:m*m], f.grad[:m], f.groups, k, f.step)
	} else {
		f.gradRows(nd, norms, yd, gzd)
	}
	for j, n := range norms {
		norms[j] = math.Sqrt(n)
	}
	f.proj.scaleOntoBall(f.next, f.lambda)
	nSup := f.proj.support

	tNext := (1 + math.Sqrt(1+4*f.tk*f.tk)) / 2
	mom := (f.tk - 1) / tNext
	// y = next + mom*(next − beta), fused with the convergence statistics
	// ‖next − beta‖_F and ‖next‖_F. Outside the union of the three supports
	// next, beta and y are all zero and stay so, and every skipped term of
	// the sums is an exact zero.
	f.union = unionInto(f.union, nSup, f.bSup, f.ySup)
	var diffSq, baseSq float64
	for i := 0; i < k; i++ {
		for _, j := range f.union {
			e := i*m + j
			nv := nd[e]
			d := nv - bd[e]
			yd[e] = nv + mom*d
			diffSq += d * d
			baseSq += nv * nv
		}
	}
	// y's new support is next's and beta's together.
	f.ySup = unionInto(f.ySup, nSup, f.bSup, nil)
	f.bSup = append(f.bSup[:0], nSup...)
	f.beta, f.next = f.next, f.beta
	f.tk = tNext

	base := math.Sqrt(baseSq)
	if base == 0 {
		base = 1
	}
	return math.Sqrt(diffSq) / base
}

// gradRows writes the gradient step next = y − step·(y·ZZᵀ − GZᵀ) of the
// row-major K-by-M matrices yd, gzd into nd, one row at a time (mulZZt's
// row of y·ZZᵀ, then one pass over the row), and adds the squares of each
// row of next into norms. It is the portable path and the oracle of
// fistaRowsAVX2.
func (f *fistaState) gradRows(nd, norms, yd, gzd []float64) {
	step, grad := f.step, f.grad
	m := len(grad)
	norms = norms[:m]
	for i := 0; i < len(yd)/m; i++ {
		yrow := yd[i*m : (i+1)*m]
		f.mulZZt(grad, yrow)
		nrow, gzrow := nd[i*m:i*m+m], gzd[i*m:i*m+m]
		for j, gv := range grad {
			v := yrow[j] - step*(gv-gzrow[j])
			nrow[j] = v
			norms[j] += v * v
		}
	}
}

// zzGroup is one term of mulZZt's sum: up to four columns of y's support
// that share an aligned group of four candidate indices, or one trailing
// index past the last such group. fistaRowsAVX2 reads it by offset
// (TestZZGroupLayout).
type zzGroup struct {
	n   int
	col [4]int
}

// planZZt splits y's support into the groups mulZZt adds, in ascending
// order. It runs once per iteration; every row of y shares the plan.
func (f *fistaState) planZZt() {
	m := f.y.Cols()
	tail := m - m%4
	f.groups = f.groups[:0]
	for s := 0; s < len(f.ySup); {
		g := zzGroup{}
		if f.ySup[s] >= tail {
			g.n, g.col[0] = 1, f.ySup[s]
			s++
		} else {
			for end := f.ySup[s]&^3 + 4; s < len(f.ySup) && f.ySup[s] < end; s++ {
				g.col[g.n] = f.ySup[s]
				g.n++
			}
		}
		f.groups = append(f.groups, g)
	}
}

// mulZZt writes one row of y·ZZᵀ into out from the row yrow, adding only
// the rows of ZZᵀ that y's support selects, per the plan of planZZt. It
// keeps mat.MulInto's per-element arithmetic: mat's kernel adds one
// four-term sum per aligned group of four candidate indices, skips a group
// whose four coefficients are all zero, and adds the M mod 4 trailing
// indices one product at a time. Here a group's sum leaves out the
// coefficients outside y's support, which are zero; adding a zero product
// changes at most the sign of an exact zero.
func (f *fistaState) mulZZt(out, yrow []float64) {
	m := len(out)
	zz := f.gr.zzt.Data()
	for j := range out {
		out[j] = 0
	}
	for gi := range f.groups {
		g := &f.groups[gi]
		c0 := g.col[0]
		r0 := zz[c0*m : (c0+1)*m]
		a0 := yrow[c0]
		switch g.n {
		case 1:
			if a0 == 0 {
				continue
			}
			for j, v := range r0 {
				out[j] += a0 * v
			}
		case 2:
			c1 := g.col[1]
			a1 := yrow[c1]
			if a0 == 0 && a1 == 0 {
				continue
			}
			r1 := zz[c1*m : c1*m+len(r0)]
			for j, v := range r0 {
				out[j] += a0*v + a1*r1[j]
			}
		case 3:
			c1, c2 := g.col[1], g.col[2]
			a1, a2 := yrow[c1], yrow[c2]
			if a0 == 0 && a1 == 0 && a2 == 0 {
				continue
			}
			r1, r2 := zz[c1*m:c1*m+len(r0)], zz[c2*m:c2*m+len(r0)]
			for j, v := range r0 {
				out[j] += a0*v + a1*r1[j] + a2*r2[j]
			}
		default:
			c1, c2, c3 := g.col[1], g.col[2], g.col[3]
			a1, a2, a3 := yrow[c1], yrow[c2], yrow[c3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			r1, r2, r3 := zz[c1*m:c1*m+len(r0)], zz[c2*m:c2*m+len(r0)], zz[c3*m:c3*m+len(r0)]
			for j, v := range r0 {
				out[j] += a0*v + a1*r1[j] + a2*r2[j] + a3*r3[j]
			}
		}
	}
}

// unionInto writes the ascending union of the ascending index lists a, b
// and c into dst (reusing its storage) and returns it. dst must not alias
// any of them.
func unionInto(dst, a, b, c []int) []int {
	dst = dst[:0]
	for {
		j := math.MaxInt
		if len(a) > 0 {
			j = a[0]
		}
		if len(b) > 0 && b[0] < j {
			j = b[0]
		}
		if len(c) > 0 && c[0] < j {
			j = c[0]
		}
		if j == math.MaxInt {
			return dst
		}
		dst = append(dst, j)
		if len(a) > 0 && a[0] == j {
			a = a[1:]
		}
		if len(b) > 0 && b[0] == j {
			b = b[1:]
		}
		if len(c) > 0 && c[0] == j {
			c = c[1:]
		}
	}
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
	bd, sd, gzd, zzd := beta.Data(), s.Data(), gr.gzt.Data(), gr.zzt.Data()

	zsq := make([]float64, m)
	for j := 0; j < m; j++ {
		zsq[j] = zzd[j*m+j]
	}

	u := make([]float64, k)
	var iters int
	for iters = 1; iters <= opt.MaxIter; iters++ {
		maxChange, maxCoef := 0.0, 0.0
		for j := 0; j < m; j++ {
			if zsq[j] == 0 {
				continue // constant-zero feature can never be active
			}
			for i := range u {
				e := i*m + j
				u[i] = gzd[e] - sd[e] + bd[e]*zsq[j]
			}
			un := mat.Norm2(u)
			var scale float64
			if un > mu {
				scale = (1 - mu/un) / zsq[j]
			}
			zztRow := zzd[j*m : (j+1)*m]
			for i, ui := range u {
				e := i*m + j
				old := bd[e]
				nv := scale * ui
				if nv != old {
					d := nv - old
					// s[i][:] += d * (ZZᵀ)[j][:]
					addScaled(sd[i*m:(i+1)*m], d, zztRow)
					bd[e] = nv
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

// addScaled adds d·x[c] to y[c] for every c < len(x); y must be at least
// as long as x. The AVX2 kernel does the same four elements at a time.
func addScaled(y []float64, d float64, x []float64) {
	if simd.AVX2() {
		addScaledAVX2(y[:len(x)], d, x)
		return
	}
	addScaledGo(y, d, x)
}

// addScaledGo is addScaled's portable path and the oracle of
// addScaledAVX2.
func addScaledGo(y []float64, d float64, x []float64) {
	y = y[:len(x)]
	for c, xc := range x {
		y[c] += d * xc
	}
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
