package ols

import (
	"math"
	"math/rand"
	"testing"

	"voltsense/internal/mat"
)

func randMatrix(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.Zeros(r, c)
	d := m.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return m
}

func TestGLSGainEqualVariancesIsPseudoInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randMatrix(rng, 8, 3)
	ones := make([]float64, 8)
	scaled := make([]float64, 8)
	for i := range ones {
		ones[i] = 1
		scaled[i] = 0.037 // any common variance must cancel
	}
	p1, err := GLSGain(d, ones)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := GLSGain(d, scaled)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equalish(p1, p2, 1e-9) {
		t.Errorf("equal variances did not cancel: max diff %g", mat.MaxAbsDiff(p1, p2))
	}
	// P·D must be the identity (left inverse on a full-column-rank design).
	pd := mat.Mul(p1, d)
	if !mat.Equalish(pd, mat.Eye(3), 1e-9) {
		t.Errorf("gain is not a left inverse: max diff %g", mat.MaxAbsDiff(pd, mat.Eye(3)))
	}
}

func TestGLSGainRecoversHeteroscedasticTruth(t *testing.T) {
	// With one precise and several noisy equations, the GLS estimate must
	// sit closer to the truth than OLS on average.
	rng := rand.New(rand.NewSource(9))
	d := randMatrix(rng, 12, 2)
	truth := []float64{1.5, -0.7}
	vars := make([]float64, 12)
	for i := range vars {
		vars[i] = 1.0
	}
	vars[0], vars[1] = 1e-6, 1e-6 // two near-exact reference equations
	pGLS, err := GLSGain(d, vars)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, 12)
	for i := range ones {
		ones[i] = 1
	}
	pOLS, err := GLSGain(d, ones)
	if err != nil {
		t.Fatal(err)
	}
	var glsErr, olsErr float64
	for trial := 0; trial < 200; trial++ {
		y := make([]float64, 12)
		for i := 0; i < 12; i++ {
			y[i] = mat.Dot(d.Row(i), truth) + rng.NormFloat64()*math.Sqrt(vars[i])
		}
		ag := mat.MulVec(pGLS, y)
		ao := mat.MulVec(pOLS, y)
		for k := range truth {
			glsErr += (ag[k] - truth[k]) * (ag[k] - truth[k])
			olsErr += (ao[k] - truth[k]) * (ao[k] - truth[k])
		}
	}
	if glsErr >= olsErr {
		t.Errorf("GLS mean-square error %g not below OLS %g under heteroscedastic noise", glsErr, olsErr)
	}
}

func TestGLSGainRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := randMatrix(rng, 3, 5) // fewer equations than unknowns
	v := []float64{1, 1, 1}
	if _, err := GLSGain(d, v); err == nil {
		t.Error("underdetermined design accepted")
	}
	d2 := randMatrix(rng, 5, 2)
	if _, err := GLSGain(d2, []float64{1, 1, 0, 1, 1}); err == nil {
		t.Error("zero variance accepted")
	}
}
