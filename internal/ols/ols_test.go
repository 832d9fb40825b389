package ols

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"voltsense/internal/mat"
)

func randn(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.Zeros(r, c)
	d := m.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return m
}

// Property: Fit exactly recovers a planted affine model from noiseless data.
func TestFitRecoversPlantedModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := 1 + rng.Intn(5)
		k := 1 + rng.Intn(4)
		n := q + 2 + rng.Intn(50)
		x := randn(rng, q, n)
		alpha := randn(rng, k, q)
		c := make([]float64, k)
		for i := range c {
			c[i] = rng.NormFloat64() * 3
		}
		fm := mat.Mul(alpha, x)
		for i := 0; i < k; i++ {
			row := fm.Row(i)
			for j := range row {
				row[j] += c[i]
			}
		}
		m, err := Fit(x, fm)
		if err != nil {
			return false
		}
		if !mat.Equalish(m.Alpha, alpha, 1e-7) {
			return false
		}
		for i := range c {
			if math.Abs(m.C[i]-c[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPredictMatchesPredictMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randn(rng, 3, 40)
	fm := randn(rng, 2, 40)
	m, err := Fit(x, fm)
	if err != nil {
		t.Fatal(err)
	}
	pm := m.PredictMatrix(x)
	for j := 0; j < 40; j++ {
		p := m.Predict(x.Col(j))
		for i := range p {
			if math.Abs(p[i]-pm.At(i, j)) > 1e-12 {
				t.Fatalf("Predict and PredictMatrix disagree at (%d,%d)", i, j)
			}
		}
	}
}

// Property: OLS residual is orthogonal to the centered inputs (normal
// equations), even with noisy data.
func TestFitNormalEquations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := 1 + rng.Intn(4)
		n := q + 5 + rng.Intn(60)
		x := randn(rng, q, n)
		fm := randn(rng, 2, n)
		m, err := Fit(x, fm)
		if err != nil {
			return false
		}
		res := mat.Sub(fm, m.PredictMatrix(x))
		// Residual must have zero mean per output (intercept) and zero
		// correlation with every input row.
		for i := 0; i < res.Rows(); i++ {
			if math.Abs(mat.Mean(res.Row(i))) > 1e-8 {
				return false
			}
			for qi := 0; qi < q; qi++ {
				if math.Abs(mat.Dot(res.Row(i), x.Row(qi)))/float64(n) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFitBeatsGuessingTheMean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randn(rng, 2, 200)
	// f correlated with x plus noise.
	fm := mat.Add(mat.Mul(randn(rng, 3, 2), x), mat.Scale(0.1, randn(rng, 3, 200)))
	m, err := Fit(x, fm)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.PredictMatrix(x)
	meanModel := mat.Zeros(3, 200)
	for i := 0; i < 3; i++ {
		mu := mat.Mean(fm.Row(i))
		row := meanModel.Row(i)
		for j := range row {
			row[j] = mu
		}
	}
	if mat.FrobeniusDistance(pred, fm) >= mat.FrobeniusDistance(meanModel, fm) {
		t.Fatal("OLS no better than the mean on correlated data")
	}
}

func TestFitErrorsOnTooFewSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randn(rng, 5, 4)
	fm := randn(rng, 2, 4)
	if _, err := Fit(x, fm); err == nil {
		t.Fatal("expected error with fewer samples than coefficients")
	}
}

func TestFitErrorsOnDuplicateSensor(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := randn(rng, 1, 50)
	x := mat.Zeros(2, 50)
	for j := 0; j < 50; j++ {
		v := base.At(0, j)
		x.Set(0, j, v)
		x.Set(1, j, v)
	}
	fm := randn(rng, 1, 50)
	if _, err := Fit(x, fm); err == nil {
		t.Fatal("expected rank-deficiency error for duplicated sensor rows")
	}
}

func TestFitSampleMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fit(mat.Zeros(2, 10), mat.Zeros(2, 11))
}

func TestRelativeError(t *testing.T) {
	truth := mat.FromRows([][]float64{{3, 4}})
	pred := mat.FromRows([][]float64{{3, 4}})
	if got := RelativeError(pred, truth); got != 0 {
		t.Fatalf("exact prediction error = %v", got)
	}
	pred2 := mat.FromRows([][]float64{{3, 4 + 0.5}})
	if got := RelativeError(pred2, truth); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelativeError = %v, want 0.1", got)
	}
	if got := RelativeError(pred, mat.Zeros(1, 2)); !math.IsInf(got, 1) {
		t.Fatalf("zero truth should give +Inf, got %v", got)
	}
}

func TestMaxAbsError(t *testing.T) {
	truth := mat.FromRows([][]float64{{0, 0}, {0, 0}})
	pred := mat.FromRows([][]float64{{1, 1}, {1, 3}})
	if got := MaxAbsError(pred, truth); got != 3 {
		t.Fatalf("MaxAbsError = %v, want 3", got)
	}
}

func TestModelDims(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, err := Fit(randn(rng, 3, 50), randn(rng, 7, 50))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumInputs() != 3 || m.NumOutputs() != 7 {
		t.Fatalf("dims = %d/%d, want 3/7", m.NumInputs(), m.NumOutputs())
	}
}
