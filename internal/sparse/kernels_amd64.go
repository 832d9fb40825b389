package sparse

// The AVX2 kernels of BatchCGSolver, four interleaved columns per vector: a
// lane is a column, so no kernel reduces across lanes, and each performs
// exactly its Go twin's floating-point operations for every column, in the
// same order. Row accumulators stay in registers across a row's nonzeros,
// multiplies and adds stay separate (never a fused multiply-add) and the IC
// sweeps divide by the diagonal. The 1–3 columns past the last full vector
// run in the same row loop, as one pair and one single column. Slices are
// unpadded: m is the interleave stride and the block width alike.

// batchSpMVAVX2 is batchSpMVGo.
//
//go:noescape
func batchSpMVAVX2(y, x []float64, rowPtr, colIdx []int, val []float64, m, lo, hi int)

// icForwardAVX2 is icForwardGo.
//
//go:noescape
func icForwardAVX2(z, r []float64, rowPtr, colIdx []int, val []float64, m, lo, hi int)

// icBackwardAVX2 is icBackwardGo.
//
//go:noescape
func icBackwardAVX2(z []float64, rowPtr, colIdx []int, val []float64, m, lo, hi int)

// batchDotAVX2 is batchDotGo: it holds one accumulator per four columns
// (and one for the pair and the single column past them) in registers
// across each reduction block, for up to 16 columns at a time.
//
//go:noescape
func batchDotAVX2(sums, x, y []float64, m, n, lo, hi int)

// batchAxpy2AVX2 is batchAxpy2Go with the blend mask activeMask builds from
// active: every column is computed and the mask keeps each frozen one's
// old bits.
//
//go:noescape
func batchAxpy2AVX2(x, z, y, w, sc []float64, mask []uint64, m, lo, hi int)

// batchXpBYAVX2 is batchXpBYGo with activeMask's blend mask.
//
//go:noescape
func batchXpBYAVX2(x, y, sc []float64, mask []uint64, m, lo, hi int)

// batchSubAVX2 is batchSubGo.
//
//go:noescape
func batchSubAVX2(x, y []float64, m, lo, hi int)
