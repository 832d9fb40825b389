package transfer

import (
	"fmt"
	"math"

	"voltsense/internal/core"
	"voltsense/internal/mat"
	"voltsense/internal/ols"
)

// AlignConfig tunes the few-shot MAP alignment. The zero value selects the
// documented defaults.
type AlignConfig struct {
	// Shrinkage scales the prior precision in the MAP objective (the τ in
	// the package math): larger values trust the golden chip more, smaller
	// values trust the few-shot samples more. Must be ≥ 0; 0 keeps only a
	// numerical-conditioning floor. Default 1.
	Shrinkage float64

	// MinSamples is the evidence gate: below this many labeled samples the
	// alignment refuses to move off the prior and returns the pure
	// prior-mean model (Alignment.PriorOnly true). Default 4.
	MinSamples int

	// DeltaTol bounds the lossy sparsification of the stored per-chip
	// delta: coefficients that moved less than DeltaTol times their row's
	// prior scale are dropped from the delta. Default 1e-4.
	DeltaTol float64

	// Version and Parent stamp the aligned predictor's lineage. Version
	// defaults to 1 (Parent 0) for a chip's first alignment; recalibrations
	// pass the incumbent's version as Parent and Version = Parent+1.
	Version int
	Parent  int
}

func (c *AlignConfig) defaults() {
	if c.Shrinkage < 0 {
		c.Shrinkage = 0
	} else if c.Shrinkage == 0 {
		c.Shrinkage = 1
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 4
	}
	if c.DeltaTol <= 0 {
		c.DeltaTol = 1e-4
	}
	if c.Version <= 0 {
		c.Version = 1
		c.Parent = 0
	}
}

// Alignment is the result of aligning one fielded chip against the shared
// prior: the servable predictor and the sparse delta that persists it.
type Alignment struct {
	// Predictor is the aligned Eq. 20 model, lineage source "prior".
	Predictor *core.Predictor

	// Delta is the sparse difference of the aligned coefficients over the
	// prior mean — what fleet storage persists instead of full
	// coefficients (see fleet.go).
	Delta *Delta

	// Samples is the number of labeled samples that entered the fit.
	Samples int

	// PriorOnly reports that the evidence gate held the model at the pure
	// prior mean (fewer than MinSamples labeled samples).
	PriorOnly bool
}

// AlignChip solves the per-chip MAP alignment in closed form. x is Q×N
// (readings of the prior's selected sensors, one column per labeled sample)
// and f is K×N (ground-truth critical-node voltages). Per node k it solves
//
//	min_θ ‖f_k − Zθ‖² + σ²τ (θ − θ̄_k)ᵀ Λ (θ − θ̄_k),  Z = [xᵀ 1]
//
// whose solution (ZᵀZ + σ²τΛ) θ = Zᵀf_k + σ²τΛ θ̄_k is one Cholesky solve
// shared across all K nodes. With zero samples — or fewer than the evidence
// gate allows — the result is the pure prior mean.
func AlignChip(prior *SharedPrior, x, f *mat.Matrix, cfg AlignConfig) (*Alignment, error) {
	cfg.defaults()
	if err := prior.validate(); err != nil {
		return nil, err
	}
	q, k := prior.Q(), prior.K()
	n := 0
	if x != nil || f != nil {
		if x == nil || f == nil {
			return nil, fmt.Errorf("transfer: readings and voltages must both be present")
		}
		if x.Rows() != q {
			return nil, fmt.Errorf("transfer: %d reading rows for %d prior sensors", x.Rows(), q)
		}
		if f.Rows() != k {
			return nil, fmt.Errorf("transfer: %d voltage rows for %d prior nodes", f.Rows(), k)
		}
		if x.Cols() != f.Cols() {
			return nil, fmt.Errorf("transfer: %d reading columns vs %d voltage columns", x.Cols(), f.Cols())
		}
		n = x.Cols()
		for _, v := range x.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("transfer: non-finite sensor reading")
			}
		}
		for _, v := range f.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("transfer: non-finite ground-truth voltage")
			}
		}
	}

	d := q + 1
	// Prior pseudo-observations: σ²τΛ on the diagonal, σ²τΛ·θ̄ᵀ on the RHS.
	// A vanishing shrinkage keeps a tiny ridge so the solve stays posed for
	// n < d samples.
	tau := cfg.Shrinkage
	reg := prior.NoiseVar * tau
	const minReg = 1e-12
	a := mat.Zeros(d, d)
	b := mat.Zeros(d, k)
	for j := 0; j < d; j++ {
		r := reg * prior.Prec[j]
		if r < minReg {
			r = minReg
		}
		a.Set(j, j, r)
		brow := b.Row(j)
		for i := 0; i < k; i++ {
			brow[i] = r * prior.Mean.At(i, j)
		}
	}

	priorOnly := n < cfg.MinSamples
	if !priorOnly {
		// Accumulate ZᵀZ and Zᵀf column-sample by column-sample.
		z := make([]float64, d)
		for s := 0; s < n; s++ {
			for i := 0; i < q; i++ {
				z[i] = x.At(i, s)
			}
			z[q] = 1
			for i := 0; i < d; i++ {
				arow := a.Row(i)
				zi := z[i]
				for j := 0; j < d; j++ {
					arow[j] += zi * z[j]
				}
				brow := b.Row(i)
				for j := 0; j < k; j++ {
					brow[j] += zi * f.At(j, s)
				}
			}
		}
	}

	chol, err := mat.FactorCholesky(a)
	if err != nil {
		return nil, fmt.Errorf("transfer: posterior normal matrix not positive definite: %w", err)
	}
	theta := chol.SolveMatrix(b) // (Q+1)×K

	alpha := mat.Zeros(k, q)
	c := make([]float64, k)
	for kk := 0; kk < k; kk++ {
		arow := alpha.Row(kk)
		for j := 0; j < q; j++ {
			arow[j] = theta.At(j, kk)
		}
		c[kk] = theta.At(q, kk)
	}
	for _, v := range alpha.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("transfer: alignment produced non-finite coefficients")
		}
	}
	for _, v := range c {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("transfer: alignment produced non-finite intercepts")
		}
	}

	pred := &core.Predictor{
		Selected: append([]int(nil), prior.Selected...),
		Model:    &ols.Model{Alpha: alpha, C: c},
		Lineage: &core.Lineage{
			Version: cfg.Version,
			Parent:  cfg.Parent,
			Source:  core.LineageSourcePrior,
			Samples: n,
			Prior:   prior.Fingerprint(),
		},
	}
	al := &Alignment{
		Predictor: pred,
		Samples:   n,
		PriorOnly: priorOnly,
	}
	al.Delta = MakeDelta(prior, pred, cfg.DeltaTol)
	return al, nil
}

// FitScratch fits the same labeled samples with no golden prior — a
// zero-mean, near-vanishing ridge sized only to keep the normal equations
// positive definite. This is the from-scratch baseline the transfer
// ablation compares against: for n < Q+2 samples plain OLS is singular, and
// even above that the fit sees nothing but the few-shot data.
func FitScratch(selected []int, x, f *mat.Matrix) (*core.Predictor, error) {
	q := len(selected)
	if x == nil || f == nil || x.Rows() != q || x.Cols() != f.Cols() || x.Cols() == 0 {
		return nil, fmt.Errorf("transfer: bad scratch-fit inputs")
	}
	k := f.Rows()
	d := q + 1
	// Ridge scaled to the data's Gram trace: small enough to be inert once
	// the problem is determined, large enough to keep Cholesky posed.
	a := mat.Zeros(d, d)
	b := mat.Zeros(d, k)
	z := make([]float64, d)
	n := x.Cols()
	for s := 0; s < n; s++ {
		for i := 0; i < q; i++ {
			z[i] = x.At(i, s)
		}
		z[q] = 1
		for i := 0; i < d; i++ {
			arow := a.Row(i)
			zi := z[i]
			for j := 0; j < d; j++ {
				arow[j] += zi * z[j]
			}
			brow := b.Row(i)
			for j := 0; j < k; j++ {
				brow[j] += zi * f.At(j, s)
			}
		}
	}
	trace := 0.0
	for j := 0; j < d; j++ {
		trace += a.At(j, j)
	}
	ridge := 1e-8 * trace / float64(d)
	if ridge <= 0 {
		ridge = 1e-12
	}
	for j := 0; j < d; j++ {
		a.Set(j, j, a.At(j, j)+ridge)
	}
	chol, err := mat.FactorCholesky(a)
	if err != nil {
		return nil, fmt.Errorf("transfer: scratch normal matrix not positive definite: %w", err)
	}
	theta := chol.SolveMatrix(b)
	alpha := mat.Zeros(k, q)
	c := make([]float64, k)
	for kk := 0; kk < k; kk++ {
		arow := alpha.Row(kk)
		for j := 0; j < q; j++ {
			arow[j] = theta.At(j, kk)
		}
		c[kk] = theta.At(q, kk)
	}
	return &core.Predictor{
		Selected: append([]int(nil), selected...),
		Model:    &ols.Model{Alpha: alpha, C: c},
		Lineage:  &core.Lineage{Version: 1, Source: core.LineageSourceTrain, Samples: n},
	}, nil
}
