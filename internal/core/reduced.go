package core

import "voltsense/internal/basis"

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
