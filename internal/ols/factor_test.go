package ols

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"voltsense/internal/mat"
)

// without returns the rows of x not named in drop, in order.
func without(x *mat.Matrix, drop ...int) *mat.Matrix {
	var keep []int
	for i := 0; i < x.Rows(); i++ {
		skip := false
		for _, d := range drop {
			skip = skip || d == i
		}
		if !skip {
			keep = append(keep, i)
		}
	}
	return x.SelectRows(keep)
}

// sameModel fails unless the coefficients and intercepts agree within tol
// and the relative errors within tol relative.
func sameModel(t *testing.T, what string, fz *Factorization, x, f *mat.Matrix, tol float64) {
	t.Helper()
	got, err := fz.Model()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := Fit(x, f)
	if err != nil {
		t.Fatalf("%s: refit: %v", what, err)
	}
	if !mat.Equalish(got.Alpha, want.Alpha, tol) {
		t.Fatalf("%s: alpha differs from the refit by more than %g", what, tol)
	}
	for i, c := range want.C {
		if math.Abs(got.C[i]-c) > tol {
			t.Fatalf("%s: c[%d] = %v, refit %v", what, i, got.C[i], c)
		}
	}
	wantErr := RelativeError(want.PredictMatrix(x), f)
	if d := math.Abs(fz.RelError()-wantErr) / wantErr; d > tol {
		t.Fatalf("%s: RelError %v, refit %v (relative gap %g)", what, fz.RelError(), wantErr, d)
	}
}

func TestFactorModelIsFit(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	x, f := correlatedSamples(rng, 6, 5, 200)
	fz, err := Factor(x, f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fz.Model()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Fit(x, f)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "alpha", got.Alpha.Data(), want.Alpha.Data())
	sameBits(t, "c", got.C, want.C)
	sameModel(t, "full", fz, x, f, 1e-9)
}

// Dropping columns by Givens deletion must give the model a refit on the
// remaining sensors gives, one column or two at a time.
func TestDropMatchesRefit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const q = 6
	x, f := correlatedSamples(rng, q, 5, 200)
	fz, err := Factor(x, f)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < q; p++ {
		one := fz.Drop(p)
		sameModel(t, fmt.Sprintf("drop %d", p), one, without(x, p), f, 1e-9)
		for p2 := p + 1; p2 < q; p2++ {
			// p2 is column p2-1 once p is gone.
			sameModel(t, fmt.Sprintf("drop %d then %d", p, p2), one.Drop(p2-1), without(x, p, p2), f, 1e-9)
		}
	}
	// Drop leaves its receiver whole.
	sameModel(t, "full after drops", fz, x, f, 1e-9)
}

// A duplicated sensor makes the full model singular, but every submodel
// that drops one copy solves; one that keeps both copies does not.
func TestDropRepairsDuplicateSensor(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	x, f := correlatedSamples(rng, 4, 3, 100)
	copy(x.Row(2), x.Row(0))
	fz, err := Factor(x, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := fz.Check(); !errors.Is(err, mat.ErrSingular) {
		t.Fatalf("full duplicated design: Check = %v, want ErrSingular", err)
	}
	if _, err := fz.Model(); !errors.Is(err, mat.ErrSingular) {
		t.Fatalf("full duplicated design: Model error %v, want ErrSingular", err)
	}
	for p, wantOK := range []bool{true, false, true, false} {
		err := fz.Drop(p).Check()
		if (err == nil) != wantOK {
			t.Fatalf("drop %d: Check = %v, want ok %v", p, err, wantOK)
		}
		if wantOK {
			sameModel(t, fmt.Sprintf("drop %d", p), fz.Drop(p), without(x, p), f, 1e-9)
		}
	}
}

func TestFactorSampleChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	if _, err := Factor(randn(rng, 5, 4), randn(rng, 2, 4)); err == nil {
		t.Fatal("Factor accepted fewer samples than sensors")
	}
	// N = Q factors, but only the submodels have a sample to spare.
	fz, err := Factor(randn(rng, 4, 4), randn(rng, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if fz.Check() == nil {
		t.Fatal("full model with N = Q accepted")
	}
	if err := fz.Drop(1).Check(); err != nil {
		t.Fatalf("N = Q, one sensor dropped: %v", err)
	}
}
