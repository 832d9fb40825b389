package mat

import "fmt"

// RowMeans returns the mean of every row of m: in this codebase rows index
// variables (sensor sites / circuit blocks) and columns index the N samples,
// matching the paper's X (M-by-N) and F (K-by-N) layout.
func RowMeans(m *Matrix) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = Mean(m.Row(i))
	}
	return out
}

// Standardization records the per-row affine transform used to bring a data
// matrix to zero mean and unit variance, so predictions can be mapped back.
type Standardization struct {
	Mean []float64
	Std  []float64 // rows with zero variance get Std == 1 (identity scale)
}

// Standardize returns a normalized copy of m (each row zero-mean,
// unit-variance) plus the transform that produced it. Constant rows are
// centered but left unscaled. Rows are independent, so the work is split
// across the package worker pool (see SetParallelism); results are identical
// to the serial computation for any worker count.
func Standardize(m *Matrix) (*Matrix, *Standardization) {
	s := &Standardization{
		Mean: make([]float64, m.rows),
		Std:  make([]float64, m.rows),
	}
	out := Zeros(m.rows, m.cols)
	parallelFor(m.rows, minRowsPerChunk(4*m.cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src, dst := m.Row(i), out.Row(i)
			mu := Mean(src)
			sd := StdDev(src)
			if sd == 0 {
				sd = 1
			}
			s.Mean[i], s.Std[i] = mu, sd
			for j, v := range src {
				dst[j] = (v - mu) / sd
			}
		}
	})
	return out, s
}

// Apply normalizes a raw column vector x (one value per row of the original
// matrix) using the stored transform.
func (s *Standardization) Apply(x []float64) []float64 {
	if len(x) != len(s.Mean) {
		panic(fmt.Sprintf("mat: Standardization.Apply length %d, want %d", len(x), len(s.Mean)))
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = (v - s.Mean[i]) / s.Std[i]
	}
	return out
}

// Invert maps a normalized column vector back to raw units.
func (s *Standardization) Invert(z []float64) []float64 {
	if len(z) != len(s.Mean) {
		panic(fmt.Sprintf("mat: Standardization.Invert length %d, want %d", len(z), len(s.Mean)))
	}
	out := make([]float64, len(z))
	for i, v := range z {
		out[i] = v*s.Std[i] + s.Mean[i]
	}
	return out
}

// Subset returns the transform restricted to the rows named by idx, for use
// after sensor selection has discarded the other rows.
func (s *Standardization) Subset(idx []int) *Standardization {
	out := &Standardization{Mean: make([]float64, len(idx)), Std: make([]float64, len(idx))}
	for k, i := range idx {
		out.Mean[k] = s.Mean[i]
		out.Std[k] = s.Std[i]
	}
	return out
}
