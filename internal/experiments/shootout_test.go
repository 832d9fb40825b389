package experiments

import (
	"strings"
	"testing"

	"voltsense/internal/place"
)

// TestCriteriaShootoutRanksAllMethods runs the full shootout — all six
// criteria, one after another, on one shared problem, plus the mixed-class
// row — on the shared quick pipeline.
func TestCriteriaShootoutRanksAllMethods(t *testing.T) {
	p := quick(t)
	const q = 6
	spec := place.DefaultClassSpec
	d, err := p.CriteriaShootout(q, nil, spec, float64(q)*spec.RefCost)
	if err != nil {
		t.Fatal(err)
	}
	want := len(place.Names()) + 1 // + mixed
	if len(d.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(d.Rows), want)
	}
	seen := map[string]bool{}
	for _, r := range d.Rows {
		seen[r.Criterion] = true
		if r.Criterion == MixedLabel {
			if r.Cost > d.Budget {
				t.Errorf("mixed cost %g exceeds budget %g", r.Cost, d.Budget)
			}
			if r.RefCount+r.LowCount != r.Sensors {
				t.Errorf("mixed class counts %d+%d != %d sensors", r.RefCount, r.LowCount, r.Sensors)
			}
		} else if r.Sensors != q {
			t.Errorf("%s placed %d sensors, want %d", r.Criterion, r.Sensors, q)
		}
		if r.RelErr <= 0 || r.RelErr > 0.5 {
			t.Errorf("%s rel err %g implausible", r.Criterion, r.RelErr)
		}
		if r.Rates.TE < 0 || r.Rates.TE > 1 {
			t.Errorf("%s TE %g out of [0,1]", r.Criterion, r.Rates.TE)
		}
	}
	for _, name := range place.Names() {
		if !seen[name] {
			t.Errorf("criterion %s missing from shootout", name)
		}
	}
	// Ranking invariant: total error non-decreasing down the table (best
	// detector first).
	for i := 1; i < len(d.Rows); i++ {
		if d.Rows[i].Rates.TE < d.Rows[i-1].Rates.TE-1e-12 {
			t.Errorf("rows not ranked by TE: %g after %g", d.Rows[i].Rates.TE, d.Rows[i-1].Rates.TE)
		}
	}
	// The acceptance bound the docs quote: every NEW criterion's total error
	// within 15% of the group-lasso baseline's at equal sensor count.
	// Eagle-Eye is exempt — it is the paper's known-worse comparison
	// baseline, kept in the table for that comparison, and its coverage
	// heuristic drifts well outside the bound at larger sensor counts.
	base := d.Baseline()
	if base == nil {
		t.Fatal("group-lasso baseline missing")
	}
	for _, r := range d.Rows {
		if r.Criterion == "eagleeye" {
			continue
		}
		if r.Rates.TE > 1.15*base.Rates.TE {
			t.Errorf("%s TE %.4f above 115%% of group-lasso baseline %.4f", r.Criterion, r.Rates.TE, base.Rates.TE)
		}
	}
	// Render and CSV agree on the row set.
	rendered := d.Render()
	csv := d.CSV()
	for _, r := range d.Rows {
		if !strings.Contains(rendered, r.Criterion) || !strings.Contains(csv, r.Criterion) {
			t.Errorf("row %s missing from rendered output", r.Criterion)
		}
	}
	if testing.Verbose() {
		t.Log("\n" + rendered)
	}
}

func TestCriteriaShootoutValidation(t *testing.T) {
	p := quick(t)
	if _, err := p.CriteriaShootout(0, nil, place.DefaultClassSpec, 0); err == nil {
		t.Error("zero sensor count accepted")
	}
	if _, err := p.CriteriaShootout(4, []string{"bogus"}, place.DefaultClassSpec, 0); err == nil {
		t.Error("unknown criterion accepted")
	}
	// budget 0 skips the mixed row.
	d, err := p.CriteriaShootout(4, []string{"dopt"}, place.DefaultClassSpec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 1 || d.Rows[0].Criterion != "dopt" {
		t.Errorf("criteria subset not honored: %+v", d.Rows)
	}
}
