package core

import (
	"errors"
	"fmt"

	"voltsense/internal/basis"
	"voltsense/internal/mat"
	"voltsense/internal/ols"
)

// ReducedPlacement is a group-lasso placement solved against a rank-r POD
// compression of the critical-node targets instead of all K of them. The
// embedded Placement is fully populated, but GL.Beta lives in the r-dim
// coefficient space (r-by-M rather than K-by-M). Because the basis has
// orthonormal columns, group norms in coefficient space equal the full-space
// norms up to the discarded (1−energy) tail; at r = K the rotation is
// exact and the selection provably matches the dense solve.
type ReducedPlacement struct {
	*Placement
	Basis *basis.Basis // POD basis of the standardized critical targets
}

// PlaceSensorsReduced is PlaceSensors with the Step 4 solve run in the
// r-dimensional POD coefficient space of the standardized critical targets:
// every FISTA iteration costs O(r·M²) instead of O(K·M²). bc picks the rank
// (exact Rank or an Energy fraction); cfg is interpreted as in PlaceSensors.
func PlaceSensorsReduced(ds *Dataset, cfg Config, bc basis.Config) (*ReducedPlacement, error) {
	pl, b, err := placeSensors(ds, cfg, &bc)
	if err != nil {
		return nil, err
	}
	return &ReducedPlacement{Placement: pl, Basis: b}, nil
}

// BuildReducedPredictor runs the Step 6-8 refit in POD coefficient space:
// fit a fresh rank-r basis on the raw critical targets, regress the r
// coefficient traces on the selected raw sensor voltages (O(r·Q²) instead
// of O(K·Q²) after the shared QR), then lift the model back to full size.
// The returned Predictor is a standard K-output model — downstream serving,
// detection and fault tolerance see no difference — whose accuracy differs
// from BuildPredictor only by the basis truncation. The basis used for the
// refit is returned for rank/energy reporting.
func BuildReducedPredictor(ds *Dataset, selected []int, bc basis.Config) (*Predictor, *basis.Basis, error) {
	if err := ds.Check(); err != nil {
		return nil, nil, err
	}
	if len(selected) == 0 {
		return nil, nil, errors.New("core: no sensors selected; increase lambda")
	}
	for i, s := range selected {
		if s < 0 || s >= ds.X.Rows() {
			return nil, nil, fmt.Errorf("core: selected sensor %d out of range 0..%d", s, ds.X.Rows()-1)
		}
		if i > 0 && s <= selected[i-1] {
			return nil, nil, fmt.Errorf("core: selected sensors not strictly ascending at position %d", i)
		}
	}
	b, err := basis.Fit(ds.F, bc)
	if err != nil {
		return nil, nil, fmt.Errorf("core: refit basis: %w", err)
	}
	w, err := b.Project(ds.F)
	if err != nil {
		return nil, nil, fmt.Errorf("core: refit projection: %w", err)
	}
	xs := ds.X.SelectRows(selected)
	mr, err := ols.Fit(xs, w)
	if err != nil {
		return nil, nil, fmt.Errorf("core: reduced OLS refit: %w", err)
	}
	// Lift α_r (r×Q) and c_r (r) back to the K-dim node space.
	u := b.Components()
	alpha := mat.Mul(u, mr.Alpha)
	c, err := b.LiftVec(mr.C)
	if err != nil {
		return nil, nil, fmt.Errorf("core: lifting intercept: %w", err)
	}
	sel := make([]int, len(selected))
	copy(sel, selected)
	return &Predictor{Selected: sel, Model: &ols.Model{Alpha: alpha, C: c}}, b, nil
}
