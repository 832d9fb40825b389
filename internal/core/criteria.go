package core

import (
	"fmt"

	"voltsense/internal/basis"
	"voltsense/internal/detect"
	"voltsense/internal/lasso"
	"voltsense/internal/place"
)

// CriterionConfig parameterizes criterion-driven placement (see
// internal/place): the candidate-basis knob shared by every basis-driven
// criterion, the emergency threshold the Eagle-Eye adapter covers against,
// and the solver options the group-lasso adapter runs with.
type CriterionConfig struct {
	Basis     basis.Config  // candidate POD basis; place.DefaultEnergy when empty
	Vth       float64       // emergency threshold in volts; detect.DefaultVth when 0
	Threshold float64       // group-norm selection threshold; DefaultThreshold when 0
	Solver    lasso.Options // group-lasso adapter options
}

// NewPlacementProblem builds the shared place.Problem for a dataset: one
// standardization + candidate POD fit reused across however many criteria
// the caller wants to run (that reuse is what makes a shootout cheap).
func NewPlacementProblem(ds *Dataset, cc CriterionConfig) (*place.Problem, error) {
	if err := ds.Check(); err != nil {
		return nil, err
	}
	vth := cc.Vth
	if vth == 0 {
		vth = detect.DefaultVth
	}
	p, err := place.NewProblem(ds.X, ds.F, cc.Basis, vth)
	if err != nil {
		return nil, err
	}
	p.Threshold = cc.Threshold
	if p.Threshold == 0 {
		p.Threshold = DefaultThreshold
	}
	p.Solver = cc.Solver
	return p, nil
}

// CriterionPlacement is the result of PlaceWith: which criterion ran, the q
// sensors it picked (ascending), and the problem it ran on — kept so the
// caller can refit with BuildGLSPredictor or run further criteria without
// re-standardizing.
type CriterionPlacement struct {
	Criterion string
	Selected  []int
	Problem   *place.Problem
}

// PlaceWith selects q sensors with an arbitrary placement criterion —
// the pluggable counterpart of PlaceSensors. The refit is the caller's
// choice: BuildPredictor for the paper's dense OLS, or BuildGLSPredictor
// for the basis refit with per-sensor noise weighting.
func PlaceWith(ds *Dataset, crit place.Criterion, q int, cc CriterionConfig) (*CriterionPlacement, error) {
	p, err := NewPlacementProblem(ds, cc)
	if err != nil {
		return nil, err
	}
	sel, err := crit.Select(p, q)
	if err != nil {
		return nil, fmt.Errorf("core: criterion %s: %w", crit.Name(), err)
	}
	return &CriterionPlacement{Criterion: crit.Name(), Selected: sel, Problem: p}, nil
}

// PlaceMixedSensors runs budget-constrained heterogeneous placement
// (place.PlaceMixed) on a dataset: reference and low-cost sensor classes
// priced by spec, greedily instrumented until the budget runs out. The
// returned problem feeds BuildGLSPredictor with the placement's
// NoiseVariances for the precision-weighted refit.
func PlaceMixedSensors(ds *Dataset, spec place.ClassSpec, budget float64, cc CriterionConfig) (*place.MixedPlacement, *place.Problem, error) {
	p, err := NewPlacementProblem(ds, cc)
	if err != nil {
		return nil, nil, err
	}
	mp, err := place.PlaceMixed(p, spec, budget)
	if err != nil {
		return nil, nil, err
	}
	return mp, p, nil
}

// BuildGLSPredictor wraps the heterogeneous-network refit (place.GLSModel)
// into a standard runtime Predictor: raw selected-sensor readings in, K
// critical-node voltages out, with each sensor weighted by its precision.
// noiseVar is aligned with selected (a MixedPlacement's NoiseVariances), or
// nil for the homogeneous basis refit. Downstream serving and detection see
// an ordinary Predictor.
func BuildGLSPredictor(p *place.Problem, selected []int, noiseVar []float64) (*Predictor, error) {
	m, err := place.GLSModel(p, selected, noiseVar)
	if err != nil {
		return nil, err
	}
	sel := make([]int, len(selected))
	copy(sel, selected)
	return &Predictor{Selected: sel, Model: m}, nil
}
