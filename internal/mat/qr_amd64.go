package mat

// applyQT4AVX2 is applyQT4 on four right-hand sides interleaved in w, row
// c's element i at w[4*i+c], one vector lane per right-hand side: every
// reflector's dot product, scale and update keep applyQT4's operations and
// order with separate multiplies and adds, and skip the same exact zeros
// of tau and of the reflector by branching on the scalar, so each lane's
// bits equal applyQT4's. v holds len(tau) reflector rows of len(w)/4.
//
//go:noescape
func applyQT4AVX2(v, tau, w []float64)
