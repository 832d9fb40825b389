package eagleeye

import (
	"math/rand"
	"testing"

	"voltsense/internal/mat"
)

// buildScenario creates training data where candidate sensors have known
// alarm behaviour. Candidates: 0 covers emergencies {0,1}, 1 covers {2},
// 2 covers {0} (subset of 0), 3 covers nothing.
func buildScenario() (x, f *mat.Matrix) {
	// 5 samples; samples 0,1,2 are emergencies (block voltage below 0.85).
	f = mat.FromRows([][]float64{
		{0.80, 0.82, 0.84, 0.95, 0.96},
	})
	x = mat.FromRows([][]float64{
		{0.80, 0.83, 0.90, 0.95, 0.95}, // candidate 0: alarms on samples 0,1
		{0.90, 0.90, 0.82, 0.95, 0.95}, // candidate 1: alarms on sample 2
		{0.84, 0.90, 0.90, 0.95, 0.95}, // candidate 2: alarms on sample 0
		{0.95, 0.95, 0.95, 0.95, 0.95}, // candidate 3: never alarms
	})
	return x, f
}

func TestPlaceGreedyCoverage(t *testing.T) {
	x, f := buildScenario()
	p := Place(x, f, 0.85, 2)
	if len(p.Selected) != 2 {
		t.Fatalf("selected %v, want 2 sensors", p.Selected)
	}
	if p.Selected[0] != 0 {
		t.Fatalf("first pick = %d, want candidate 0 (covers 2 emergencies)", p.Selected[0])
	}
	if p.Selected[1] != 1 {
		t.Fatalf("second pick = %d, want candidate 1 (only new coverage)", p.Selected[1])
	}
	if p.Coverage != 1.0 {
		t.Fatalf("coverage = %v, want 1.0", p.Coverage)
	}
}

func TestPlaceFillsWithWorstNoise(t *testing.T) {
	x, f := buildScenario()
	p := Place(x, f, 0.85, 4)
	if len(p.Selected) != 4 {
		t.Fatalf("selected %d sensors, want 4", len(p.Selected))
	}
	// After coverage is exhausted (0, 1), candidate 2 (min 0.84) is noisier
	// than candidate 3 (min 0.95).
	if p.Selected[2] != 2 || p.Selected[3] != 3 {
		t.Fatalf("fill order = %v, want [... 2 3]", p.Selected)
	}
}

func TestPlaceBudgetClamped(t *testing.T) {
	x, f := buildScenario()
	p := Place(x, f, 0.85, 99)
	if len(p.Selected) != x.Rows() {
		t.Fatalf("selected %d, want clamped to %d", len(p.Selected), x.Rows())
	}
}

func TestPlaceZeroBudget(t *testing.T) {
	x, f := buildScenario()
	p := Place(x, f, 0.85, 0)
	if len(p.Selected) != 0 {
		t.Fatalf("selected %v with zero budget", p.Selected)
	}
}

func TestAlarms(t *testing.T) {
	x, f := buildScenario()
	p := Place(x, f, 0.85, 1) // selects candidate 0
	alarms := p.Alarms(x)
	want := []bool{true, true, false, false, false}
	for j := range want {
		if alarms[j] != want[j] {
			t.Fatalf("alarms = %v, want %v", alarms, want)
		}
	}
}

func TestNoEmergenciesFallsBackToNoise(t *testing.T) {
	f := mat.FromRows([][]float64{{0.95, 0.96, 0.97}})
	x := mat.FromRows([][]float64{
		{0.95, 0.95, 0.95},
		{0.90, 0.95, 0.95}, // noisiest
		{0.93, 0.95, 0.95},
	})
	p := Place(x, f, 0.85, 2)
	if len(p.Selected) != 2 || p.Selected[0] != 1 || p.Selected[1] != 2 {
		t.Fatalf("selected %v, want noisiest-first [1 2]", p.Selected)
	}
	if p.Coverage != 0 {
		t.Fatalf("coverage = %v with no emergencies", p.Coverage)
	}
}

func TestPlaceGravitatesTowardWorstNoise(t *testing.T) {
	// Statistical behaviour the paper reports: with correlated noise,
	// Eagle-Eye's picks concentrate on deep-droop candidates.
	rng := rand.New(rand.NewSource(1))
	m, n := 30, 2000
	x := mat.Zeros(m, n)
	f := mat.Zeros(1, n)
	for j := 0; j < n; j++ {
		base := 0.93 + 0.04*rng.NormFloat64()
		f.Set(0, j, base-0.03)
		for c := 0; c < m; c++ {
			depth := 0.01 * float64(c%5) // candidates 4,9,... droop deepest
			x.Set(c, j, base-depth+0.01*rng.NormFloat64())
		}
	}
	p := Place(x, f, 0.85, 5)
	deep := 0
	for _, s := range p.Selected {
		if s%5 >= 3 {
			deep++
		}
	}
	if deep < 4 {
		t.Errorf("only %d of 5 picks are deep-droop candidates: %v", deep, p.Selected)
	}
}

func TestPlacePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Place(mat.Zeros(2, 3), mat.Zeros(1, 4), 0.85, 1)
}
