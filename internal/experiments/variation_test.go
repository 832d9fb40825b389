package experiments

import (
	"slices"
	"testing"

	"voltsense/internal/mat"
)

func TestAblationProcessVariation(t *testing.T) {
	p := quick(t)
	d, err := p.AblationProcessVariation(2, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("nominal : rel err %.5f, %v", d.NominalRelErr, d.NominalRates)
	t.Logf("varied  : rel err %.5f, %v", d.VariedRelErr, d.VariedRates)
	t.Logf("recal   : rel err %.5f, %v", d.RecalRelErr, d.RecalRates)

	// Variation must hurt the nominal-trained model...
	if d.VariedRelErr <= d.NominalRelErr {
		t.Errorf("variation did not increase error: %.5f vs %.5f", d.VariedRelErr, d.NominalRelErr)
	}
	// ...and post-silicon recalibration (same sensors, refit coefficients)
	// must recover most of it.
	if d.RecalRelErr >= d.VariedRelErr {
		t.Errorf("recalibration did not help: %.5f vs %.5f", d.RecalRelErr, d.VariedRelErr)
	}
	if d.RecalRelErr > 3*d.NominalRelErr {
		t.Errorf("recalibrated error %.5f far above nominal %.5f; placement may not transfer",
			d.RecalRelErr, d.NominalRelErr)
	}
}

func TestAblationProcessVariationBadSigma(t *testing.T) {
	p := quick(t)
	if _, err := p.AblationProcessVariation(2, 0); err == nil {
		t.Fatal("expected error for zero sigma")
	}
}

// TestVariantMatchesFullPipeline: a variant records exactly what a full New
// of the same varied config records once that pipeline's critical nodes are
// set to the nominal ones — the held-out set and the strided training set,
// equal under ==. So New's discarded calibration, training and test runs,
// and the simulators they leave in its pools, leave nothing behind.
func TestVariantMatchesFullPipeline(t *testing.T) {
	p, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := p.variant(0.15, 0.075, p.Cfg.Seed+77)
	full, err := New(v.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	full.CritNodes = p.CritNodes
	for _, tc := range []struct {
		name   string
		record func(*Pipeline) (*SampleSet, error)
	}{
		{"held-out", (*Pipeline).heldOut},
		{"strided training", (*Pipeline).stridedTraining},
	} {
		got, err := tc.record(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tc.record(full)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.Equalish(got.CandV, want.CandV, 0) || !mat.Equalish(got.CritV, want.CritV, 0) {
			t.Fatalf("%s: variant maps differ from the full pipeline's", tc.name)
		}
		if !slices.Equal(got.Bench, want.Bench) {
			t.Fatalf("%s: benchmark columns %v, full pipeline %v", tc.name, got.Bench, want.Bench)
		}
	}
	if mat.Equalish(p.TestAll().CandV, v.TestAll().CandV, 0) {
		t.Fatal("the variant recorded the nominal die")
	}
}
