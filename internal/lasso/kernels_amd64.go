package lasso

// fistaRowsAVX2 is gradRows four output elements at a time: for every row
// i < k it rebuilds y·ZZᵀ's row in grad by the plan groups (skipping a
// group whose coefficients are all ±0, adding each group's products
// left to right as mulZZt does), then writes next = y − step·(grad − GZᵀ)
// into nd and adds its squares into norms, with separate multiplies and
// adds, so every element's bits equal gradRows'. m is len(norms); nd, yd
// and gzd hold k rows of m, zz is m-by-m, grad holds m, and every group
// column is below m.
//
//go:noescape
func fistaRowsAVX2(nd, norms, yd, gzd, zz, grad []float64, groups []zzGroup, k int, step float64)

// scaleRowsAVX2 is scaleRows four elements at a time.
//
//go:noescape
func scaleRowsAVX2(data, scale []float64)

// addScaledAVX2 is addScaledGo four elements at a time; len(y) >= len(x).
//
//go:noescape
func addScaledAVX2(y []float64, d float64, x []float64)
