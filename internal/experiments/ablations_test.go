package experiments

import (
	"reflect"
	"testing"
)

func TestAblationOLSMagnitude(t *testing.T) {
	p := quick(t)
	d, err := p.AblationOLSMagnitude(4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("OLS-magnitude: GL err %.5f vs alt err %.5f (overlap %d/%d)",
		d.RelErrGL, d.RelErrAlt, d.OverlapsGL, d.Q)
	if len(d.AltSelected) != 4 {
		t.Fatalf("alt selected %d sensors", len(d.AltSelected))
	}
	// The paper's claim is that magnitude ranking is unreliable, not that
	// it is always worse; require only that GL is competitive.
	if d.RelErrGL > 2*d.RelErrAlt {
		t.Errorf("GL selection (%.5f) much worse than OLS-magnitude (%.5f)", d.RelErrGL, d.RelErrAlt)
	}
}

func TestAblationPlainLasso(t *testing.T) {
	p := quick(t)
	d, err := p.AblationPlainLasso(4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plain lasso: GL err %.5f vs alt err %.5f (overlap %d/%d)",
		d.RelErrGL, d.RelErrAlt, d.OverlapsGL, d.Q)
	if len(d.AltSelected) != 4 {
		t.Fatalf("alt selected %d sensors", len(d.AltSelected))
	}
	if d.RelErrGL > 2*d.RelErrAlt {
		t.Errorf("GL selection (%.5f) much worse than plain lasso (%.5f)", d.RelErrGL, d.RelErrAlt)
	}
}

func TestAblationPCA(t *testing.T) {
	p := quick(t)
	d, err := p.AblationPCA(4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("PCA: GL err %.5f vs alt err %.5f (overlap %d/%d)",
		d.RelErrGL, d.RelErrAlt, d.OverlapsGL, d.Q)
	if len(d.AltSelected) != 4 {
		t.Fatalf("alt selected %d sensors", len(d.AltSelected))
	}
	// Unsupervised PCA must not beat the supervised selection.
	if d.RelErrAlt < d.RelErrGL*0.99 {
		t.Errorf("PCA (%.5f) beat group lasso (%.5f)", d.RelErrAlt, d.RelErrGL)
	}
}

func TestAblationSensorsInFA(t *testing.T) {
	p := quick(t)
	d, err := p.AblationSensorsInFA(4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("FA sensors: BA-only err %.5f vs with-FA err %.5f (%d FA sites chosen)",
		d.RelErrBAOnly, d.RelErrWithFA, d.FASelected)
	// The paper's closing remark: admitting FA sites should help (or at
	// least not hurt). Allow numerical slack.
	if d.RelErrWithFA > d.RelErrBAOnly*1.2 {
		t.Errorf("FA-extended placement err %.5f worse than BA-only %.5f",
			d.RelErrWithFA, d.RelErrBAOnly)
	}
	if d.FASelected == 0 {
		t.Log("note: no FA site selected; BA correlation already sufficient")
	}
}

// TestAblationsThresholdZeroMeansDefault: Threshold 0 means
// core.DefaultThreshold on both sides of the plain-lasso and FA-sensor
// comparisons, exactly as it does for the group-lasso count placement they
// compare against.
func TestAblationsThresholdZeroMeansDefault(t *testing.T) {
	type result struct {
		fa    *FASensorResult
		plain *SelectionComparison
	}
	run := func(threshold float64) result {
		cfg := tinyConfig()
		cfg.Threshold = threshold
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := p.AblationSensorsInFA(4)
		if err != nil {
			t.Fatalf("Threshold %g: FA ablation: %v", threshold, err)
		}
		plain, err := p.AblationPlainLasso(4)
		if err != nil {
			t.Fatalf("Threshold %g: plain-lasso ablation: %v", threshold, err)
		}
		return result{fa, plain}
	}
	explicit, zero := run(1e-3), run(0)
	if !reflect.DeepEqual(explicit.fa, zero.fa) {
		t.Errorf("FA ablation: Threshold 1e-3 gives %+v, Threshold 0 gives %+v", *explicit.fa, *zero.fa)
	}
	if !reflect.DeepEqual(explicit.plain, zero.plain) {
		t.Errorf("plain lasso: Threshold 1e-3 gives %+v, Threshold 0 gives %+v", *explicit.plain, *zero.plain)
	}
}
