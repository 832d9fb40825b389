package detect

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"voltsense/internal/mat"
)

func TestTruthFromVoltages(t *testing.T) {
	v := mat.FromRows([][]float64{
		{0.9, 0.84, 0.9},
		{0.9, 0.9, 0.8},
	})
	got := TruthFromVoltages(v, 0.85)
	want := []bool{false, true, true}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("truth[%d] = %v, want %v", j, got[j], want[j])
		}
	}
}

func TestScoreKnownCase(t *testing.T) {
	truth := []bool{true, true, false, false, true, false}
	alarm := []bool{true, false, true, false, false, false}
	r := Score(truth, alarm)
	// 3 emergencies, 2 missed; 3 ok samples, 1 wrong alarm.
	if r.Emergencies != 3 || r.Misses != 2 || r.WrongAlarms != 1 {
		t.Fatalf("counts wrong: %+v", r)
	}
	if math.Abs(r.ME-2.0/3) > 1e-12 {
		t.Errorf("ME = %v", r.ME)
	}
	if math.Abs(r.WAE-1.0/3) > 1e-12 {
		t.Errorf("WAE = %v", r.WAE)
	}
	if math.Abs(r.TE-3.0/6) > 1e-12 {
		t.Errorf("TE = %v", r.TE)
	}
}

func TestScorePerfectDetector(t *testing.T) {
	truth := []bool{true, false, true}
	r := Score(truth, truth)
	if r.ME != 0 || r.WAE != 0 || r.TE != 0 {
		t.Fatalf("perfect detector rates: %+v", r)
	}
}

func TestScoreEdgeCases(t *testing.T) {
	// No emergencies at all: ME must be 0, not NaN.
	r := Score([]bool{false, false}, []bool{false, true})
	if r.ME != 0 || math.IsNaN(r.ME) {
		t.Errorf("ME with no emergencies = %v", r.ME)
	}
	if r.WAE != 0.5 {
		t.Errorf("WAE = %v", r.WAE)
	}
	// All emergencies: WAE must be 0.
	r = Score([]bool{true, true}, []bool{false, false})
	if r.WAE != 0 || r.ME != 1 {
		t.Errorf("all-emergency rates: %+v", r)
	}
	// Empty input.
	r = Score(nil, nil)
	if r.TE != 0 {
		t.Errorf("empty TE = %v", r.TE)
	}
}

func TestScoreMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Score([]bool{true}, []bool{true, false})
}

// Property: TE is a convex combination consistent with ME and WAE:
// TE = (ME*E + WAE*(S-E)) / S.
func TestRatesConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		truth := make([]bool, n)
		alarm := make([]bool, n)
		for i := range truth {
			truth[i] = rng.Float64() < 0.3
			alarm[i] = rng.Float64() < 0.3
		}
		r := Score(truth, alarm)
		e := float64(r.Emergencies)
		s := float64(r.Samples)
		want := (r.ME*e + r.WAE*(s-e)) / s
		return math.Abs(r.TE-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestScorePerBlock(t *testing.T) {
	truth := mat.FromRows([][]float64{
		{0.80, 0.90},
		{0.90, 0.84},
	})
	pred := mat.FromRows([][]float64{
		{0.86, 0.90}, // miss at (0,0)
		{0.80, 0.80}, // wrong alarm at (1,0), hit at (1,1)
	})
	r := ScorePerBlock(truth, pred, 0.85)
	if r.Samples != 4 || r.Emergencies != 2 || r.Misses != 1 || r.WrongAlarms != 1 {
		t.Fatalf("counts: %+v", r)
	}
	if r.ME != 0.5 || r.WAE != 0.5 || r.TE != 0.5 {
		t.Fatalf("rates: %+v", r)
	}
}

func TestScorePerBlockShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ScorePerBlock(mat.Zeros(2, 2), mat.Zeros(2, 3), 0.85)
}

func TestRatesString(t *testing.T) {
	r := Rates{ME: 0.0976, WAE: 0.0003, TE: 0.033}
	if got := r.String(); got != "ME=0.0976 WAE=0.0003 TE=0.0330" {
		t.Fatalf("String = %q", got)
	}
}
