package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gridLaplacian builds the SPD matrix of a w-by-h resistive grid with a
// small conductance to ground at every node (so it is nonsingular).
func gridLaplacian(w, h int, gGround float64) *CSR {
	n := w * h
	t := NewTriplet(n, n)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := id(x, y)
			t.Add(i, i, gGround)
			if x+1 < w {
				j := id(x+1, y)
				t.Add(i, i, 1)
				t.Add(j, j, 1)
				t.Add(i, j, -1)
				t.Add(j, i, -1)
			}
			if y+1 < h {
				j := id(x, y+1)
				t.Add(i, i, 1)
				t.Add(j, j, 1)
				t.Add(i, j, -1)
				t.Add(j, i, -1)
			}
		}
	}
	return t.ToCSR()
}

func TestTripletSumsDuplicates(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Add(0, 1, 1.5)
	tr.Add(0, 1, 2.5)
	tr.Add(1, 0, -1)
	tr.Add(1, 0, 1) // cancels to zero → dropped
	c := tr.ToCSR()
	if got := c.At(0, 1); got != 4 {
		t.Fatalf("At(0,1) = %v, want 4", got)
	}
	if got := c.At(1, 0); got != 0 {
		t.Fatalf("At(1,0) = %v, want 0", got)
	}
	if c.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (zero dropped)", c.NNZ())
	}
}

func TestTripletOutOfRangePanics(t *testing.T) {
	tr := NewTriplet(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Add(2, 0, 1)
}

func TestCSRAtAndMulVec(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Add(0, 0, 2)
	tr.Add(0, 2, 1)
	tr.Add(1, 1, 3)
	tr.Add(2, 0, 4)
	c := tr.ToCSR()
	y := c.MulVec([]float64{1, 2, 3})
	want := []float64{5, 6, 4}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-15 {
			t.Fatalf("MulVec = %v, want %v", y, want)
		}
	}
	if c.At(2, 2) != 0 {
		t.Fatal("missing entry should read 0")
	}
}

// Property: CG solves random grid Laplacian systems to tight tolerance.
func TestCGGridSystems(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 2 + rng.Intn(8)
		h := 2 + rng.Intn(8)
		a := gridLaplacian(w, h, 0.5)
		n := w * h
		xStar := make([]float64, n)
		for i := range xStar {
			xStar[i] = rng.NormFloat64()
		}
		b := a.MulVec(xStar)
		x, _, err := SolveCG(a, b, nil, CGOptions{Tol: 1e-12})
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-xStar[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCGWarmStartConverges(t *testing.T) {
	a := gridLaplacian(10, 10, 1)
	b := make([]float64, 100)
	for i := range b {
		b[i] = float64(i % 5)
	}
	xCold, itCold, err := SolveCG(a, b, nil, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the solution: should converge (almost) immediately.
	_, itWarm, err := SolveCG(a, b, xCold, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if itWarm >= itCold {
		t.Errorf("warm start took %d iters, cold took %d", itWarm, itCold)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := gridLaplacian(4, 4, 1)
	x, it, err := SolveCG(a, make([]float64, 16), nil, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if it != 0 {
		t.Errorf("zero rhs took %d iterations", it)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs must give zero solution")
		}
	}
}

func TestCGRejectsNonSPDDiag(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Add(0, 0, -1)
	tr.Add(1, 1, 1)
	if _, _, err := SolveCG(tr.ToCSR(), []float64{1, 1}, nil, CGOptions{}); err == nil {
		t.Fatal("expected error for negative diagonal")
	}
}

func TestCGIterationBudget(t *testing.T) {
	a := gridLaplacian(12, 12, 0.001) // poorly conditioned
	b := make([]float64, 144)
	b[0] = 1
	_, _, err := SolveCG(a, b, nil, CGOptions{Tol: 1e-14, MaxIter: 2})
	if err == nil {
		t.Fatal("expected ErrNoConvergence with MaxIter=2")
	}
}
