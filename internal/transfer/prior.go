// Package transfer implements fleet-scale transfer calibration: one (or a
// few) well-characterized golden chips are distilled into a SharedPrior over
// the paper's Eq. 20 coefficients, and each fielded chip is aligned to its
// own silicon with a handful of labeled samples via a closed-form MAP refit
// that uses the prior as regularizer.
//
// The paper fits one linear sensor→critical-node map per chip from a full
// simulation campaign. That economics does not survive a fleet: a million
// chips cannot each run a characterization campaign. This package inverts
// the cost — the campaign runs once on the golden chip, and every fielded
// chip pays only a few labeled (readings, voltages) pairs. The aligned fit
// is stored as a sparse delta over the prior so a million-chip artifact
// store stays small (see fleet.go).
package transfer

import (
	"fmt"
	"math"

	"voltsense/internal/core"
	"voltsense/internal/mat"
	"voltsense/internal/ols"
)

// SharedPrior is a Gaussian prior over the per-node augmented coefficient
// vector θ_k = [α_k; c_k] of the Eq. 20 predictor: θ_k ~ N(Mean_k, Λ⁻¹) with
// a diagonal precision Λ shared across nodes. It is fit from one or more
// golden-chip predictors that share the same sensor selection.
type SharedPrior struct {
	// Selected is the golden placement: candidate sensor indices, strictly
	// ascending. Every aligned chip reads exactly these sensors.
	Selected []int

	// Mean is K×(Q+1): row k holds the prior mean [α_k0 … α_k,Q-1, c_k].
	Mean *mat.Matrix

	// Prec is the diagonal prior precision Λ, length Q+1, strictly
	// positive. Column j pools the across-golden spread of coefficient j
	// (floored by PriorConfig.RelSpread and MinStd).
	Prec []float64

	// NoiseVar is the observation noise variance σ² used to scale the
	// likelihood against the prior, pooled from the goldens' training
	// residual statistics (Lineage.ResidMean/ResidStd) when available.
	NoiseVar float64

	// Goldens records how many golden predictors the prior pooled.
	Goldens int
}

// Q returns the number of sensors the prior's models read.
func (p *SharedPrior) Q() int { return len(p.Selected) }

// K returns the number of predicted critical nodes.
func (p *SharedPrior) K() int { return p.Mean.Rows() }

// PriorConfig tunes how FitPrior turns golden predictors into a prior.
// The zero value selects the documented defaults.
type PriorConfig struct {
	// RelSpread floors the prior standard deviation of each coefficient
	// column at RelSpread times the column's RMS magnitude across goldens
	// and nodes — the only spread information available with a single
	// golden chip. Default 0.25.
	RelSpread float64

	// MinStd floors the prior standard deviation absolutely, guarding
	// columns whose golden coefficients are all ~0. Default 1e-3.
	MinStd float64

	// NoiseStd overrides the observation noise standard deviation σ when
	// the goldens carry no residual statistics in their lineage.
	// Default 5e-3 (volts).
	NoiseStd float64
}

func (c *PriorConfig) defaults() {
	if c.RelSpread <= 0 {
		c.RelSpread = 0.25
	}
	if c.MinStd <= 0 {
		c.MinStd = 1e-3
	}
	if c.NoiseStd <= 0 {
		c.NoiseStd = 5e-3
	}
}

// FitPrior pools one or more golden-chip predictors into a SharedPrior.
// All goldens must share the same sensor selection and output count. With a
// single golden the coefficient spread falls back to the RelSpread/MinStd
// floors; with several, the across-golden variance of each coefficient
// column (averaged over nodes) adds on top, so better-determined columns get
// tighter priors. The noise variance pools each golden's training
// residual-RMS statistics when its lineage carries them.
func FitPrior(goldens []*core.Predictor, cfg PriorConfig) (*SharedPrior, error) {
	cfg.defaults()
	if len(goldens) == 0 {
		return nil, fmt.Errorf("transfer: no golden predictors")
	}
	g0 := goldens[0]
	if g0 == nil || g0.Model == nil {
		return nil, fmt.Errorf("transfer: nil golden predictor")
	}
	q := len(g0.Selected)
	k := g0.Model.Alpha.Rows()
	if q == 0 || k == 0 {
		return nil, fmt.Errorf("transfer: golden predictor has q=%d k=%d", q, k)
	}
	for gi, g := range goldens {
		if g == nil || g.Model == nil {
			return nil, fmt.Errorf("transfer: nil golden predictor %d", gi)
		}
		if len(g.Selected) != q || g.Model.Alpha.Rows() != k || g.Model.Alpha.Cols() != q {
			return nil, fmt.Errorf("transfer: golden %d shape mismatch (q=%d k=%d, want q=%d k=%d)",
				gi, len(g.Selected), g.Model.Alpha.Rows(), q, k)
		}
		for j, s := range g.Selected {
			if s != g0.Selected[j] {
				return nil, fmt.Errorf("transfer: golden %d sensor selection differs at position %d (%d vs %d)",
					gi, j, s, g0.Selected[j])
			}
		}
	}

	d := q + 1
	ng := float64(len(goldens))
	mean := mat.Zeros(k, d)
	for _, g := range goldens {
		for i := 0; i < k; i++ {
			row := mean.Row(i)
			arow := g.Model.Alpha.Row(i)
			for j := 0; j < q; j++ {
				row[j] += arow[j] / ng
			}
			row[q] += g.Model.C[i] / ng
		}
	}

	// Per-column RMS magnitude and across-golden variance, pooled over nodes.
	scale2 := make([]float64, d)
	spread := make([]float64, d)
	for _, g := range goldens {
		for i := 0; i < k; i++ {
			arow := g.Model.Alpha.Row(i)
			mrow := mean.Row(i)
			for j := 0; j < d; j++ {
				v := g.Model.C[i]
				if j < q {
					v = arow[j]
				}
				scale2[j] += v * v / (ng * float64(k))
				dv := v - mrow[j]
				spread[j] += dv * dv / (ng * float64(k))
			}
		}
	}
	prec := make([]float64, d)
	for j := 0; j < d; j++ {
		floor := cfg.RelSpread * math.Sqrt(scale2[j])
		if floor < cfg.MinStd {
			floor = cfg.MinStd
		}
		v := spread[j] + floor*floor
		if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, fmt.Errorf("transfer: bad prior variance %v for column %d", v, j)
		}
		prec[j] = 1 / v
	}

	// Pool σ² from the goldens' fit residual statistics when recorded.
	var noiseVar float64
	var withStats int
	for _, g := range goldens {
		if g.Lineage != nil && g.Lineage.ResidMean > 0 {
			noiseVar += g.Lineage.ResidMean*g.Lineage.ResidMean + g.Lineage.ResidStd*g.Lineage.ResidStd
			withStats++
		}
	}
	if withStats > 0 {
		noiseVar /= float64(withStats)
	} else {
		noiseVar = cfg.NoiseStd * cfg.NoiseStd
	}

	sel := append([]int(nil), g0.Selected...)
	return &SharedPrior{Selected: sel, Mean: mean, Prec: prec, NoiseVar: noiseVar, Goldens: len(goldens)}, nil
}

// Predictor materializes the prior mean as a servable predictor — the
// zero-shot model a chip gets before any labeled samples arrive. The lineage
// marks it as prior-sourced with zero samples.
func (p *SharedPrior) Predictor() *core.Predictor {
	q, k := p.Q(), p.K()
	alpha := mat.Zeros(k, q)
	c := make([]float64, k)
	for i := 0; i < k; i++ {
		row := p.Mean.Row(i)
		copy(alpha.Row(i), row[:q])
		c[i] = row[q]
	}
	return &core.Predictor{
		Selected: append([]int(nil), p.Selected...),
		Model:    &ols.Model{Alpha: alpha, C: c},
		Lineage: &core.Lineage{
			Version: 1,
			Source:  core.LineageSourcePrior,
			Prior:   p.Fingerprint(),
		},
	}
}

// validate rejects priors a corrupt artifact could carry; shared by
// LoadPrior and the alignment entry points.
func (p *SharedPrior) validate() error {
	q := len(p.Selected)
	if q == 0 {
		return fmt.Errorf("transfer: prior has no sensors")
	}
	for i, s := range p.Selected {
		if s < 0 {
			return fmt.Errorf("transfer: negative sensor index %d", s)
		}
		if i > 0 && s <= p.Selected[i-1] {
			return fmt.Errorf("transfer: sensor indices not strictly ascending at position %d", i)
		}
	}
	if p.Mean == nil || p.Mean.Rows() == 0 || p.Mean.Cols() != q+1 {
		return fmt.Errorf("transfer: prior mean shape mismatch")
	}
	for _, v := range p.Mean.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("transfer: non-finite prior mean coefficient")
		}
	}
	if len(p.Prec) != q+1 {
		return fmt.Errorf("transfer: %d precision entries for %d columns", len(p.Prec), q+1)
	}
	for j, v := range p.Prec {
		if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("transfer: prior precision[%d] = %v not positive and finite", j, v)
		}
	}
	if !(p.NoiseVar > 0) || math.IsInf(p.NoiseVar, 0) || math.IsNaN(p.NoiseVar) {
		return fmt.Errorf("transfer: prior noise variance %v not positive and finite", p.NoiseVar)
	}
	if p.Goldens < 1 {
		return fmt.Errorf("transfer: prior pooled from %d goldens", p.Goldens)
	}
	return nil
}
