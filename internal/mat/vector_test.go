package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDotKnown(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
}

// Property: Cauchy–Schwarz |x·y| <= ||x|| ||y||.
func TestCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Norm2.
func TestTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		sum := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
			sum[i] = x[i] + y[i]
		}
		return Norm2(sum) <= Norm2(x)+Norm2(y)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := StdDev(x); math.Abs(got-2) > 1e-12 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty-slice Mean/StdDev should be 0")
	}
}

func TestCorrelationBounds(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := Correlation(x, x); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self correlation = %v, want 1", got)
	}
	neg := []float64{4, 3, 2, 1}
	if got := Correlation(x, neg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("anti correlation = %v, want -1", got)
	}
	if got := Correlation(x, []float64{2, 2, 2, 2}); got != 0 {
		t.Fatalf("constant correlation = %v, want 0", got)
	}
}

// Property: correlation is invariant under positive affine transforms.
func TestCorrelationAffineInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		a := 0.5 + r.Float64()*5 // positive scale
		b := r.NormFloat64() * 10
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = a*x[i] + b
		}
		c1 := Correlation(x, y)
		c2 := Correlation(xs, y)
		return math.Abs(c1-c2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSubVec(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{10, 20}
	if got := SubVec(y, x); got[0] != 9 || got[1] != 18 {
		t.Errorf("SubVec = %v", got)
	}
}

func TestStandardizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randMatrix(rng, 5, 40)
	// Give rows distinct scales/offsets.
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = row[j]*float64(i+1) + float64(10*i)
		}
	}
	z, s := Standardize(m)
	for i := 0; i < z.Rows(); i++ {
		row := z.Row(i)
		if mu := Mean(row); math.Abs(mu) > 1e-10 {
			t.Errorf("row %d mean = %v, want 0", i, mu)
		}
		if sd := StdDev(row); math.Abs(sd-1) > 1e-10 {
			t.Errorf("row %d std = %v, want 1", i, sd)
		}
	}
	// Apply followed by Invert is identity on a raw column.
	x := m.Col(3)
	back := s.Invert(s.Apply(x))
	for i := range x {
		if math.Abs(back[i]-x[i]) > 1e-10 {
			t.Fatalf("Invert(Apply(x))[%d] = %v, want %v", i, back[i], x[i])
		}
	}
}

func TestStandardizeConstantRow(t *testing.T) {
	m := FromRows([][]float64{{5, 5, 5}})
	z, s := Standardize(m)
	for _, v := range z.Row(0) {
		if v != 0 {
			t.Fatalf("constant row should normalize to 0, got %v", v)
		}
	}
	if s.Std[0] != 1 {
		t.Fatalf("constant row Std = %v, want 1", s.Std[0])
	}
}

func TestStandardizationSubset(t *testing.T) {
	s := &Standardization{Mean: []float64{1, 2, 3}, Std: []float64{4, 5, 6}}
	sub := s.Subset([]int{2, 0})
	if sub.Mean[0] != 3 || sub.Std[0] != 6 || sub.Mean[1] != 1 || sub.Std[1] != 4 {
		t.Fatalf("Subset wrong: %+v", sub)
	}
}

func TestRowMeansStds(t *testing.T) {
	m := FromRows([][]float64{{1, 3}, {2, 2}})
	mu := RowMeans(m)
	if mu[0] != 2 || mu[1] != 2 {
		t.Errorf("RowMeans = %v", mu)
	}
	if sd0, sd1 := StdDev(m.Row(0)), StdDev(m.Row(1)); math.Abs(sd0-1) > 1e-12 || sd1 != 0 {
		t.Errorf("row std devs = %v, %v", sd0, sd1)
	}
}
