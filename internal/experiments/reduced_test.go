package experiments

import (
	"math"
	"testing"

	"voltsense/internal/basis"
)

// TestRankStudy runs the chip-joint rank/accuracy trade-off end to end on
// the tiny pipeline: the 99%-energy basis compresses K hard, its selection
// agrees with the dense solve, and its dense refit stays at dense accuracy.
func TestRankStudy(t *testing.T) {
	p, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.RankStudy(12, []float64{0.99, 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 3 {
		t.Fatalf("got %d rows, want dense + 2 energy levels", len(d.Rows))
	}
	dense := d.Rows[0]
	if dense.Label != "dense" || dense.Rank != d.Targets {
		t.Fatalf("first row is %q rank %d, want dense at full rank %d", dense.Label, dense.Rank, d.Targets)
	}
	if dense.Sensors == 0 || dense.RelErr <= 0 || math.IsNaN(dense.RelErr) {
		t.Fatalf("degenerate dense row: %+v", dense)
	}
	for _, row := range d.Rows[1:] {
		if row.Rank >= d.Targets/4 {
			t.Fatalf("%s basis barely compresses: rank %d of %d", row.Label, row.Rank, d.Targets)
		}
		if row.Energy < 0.99 {
			t.Fatalf("%s captured %g energy, below its target", row.Label, row.Energy)
		}
		// The reduced placement competes for the same sensor budget…
		if diff := row.Sensors - dense.Sensors; diff > 2 || diff < -2 {
			t.Fatalf("%s selected %d sensors vs dense %d", row.Label, row.Sensors, dense.Sensors)
		}
		// …and, refit dense, supports dense-quality predictions: the
		// truncated basis only shrank the selection solve, so the
		// accuracy columns measure the selection alone (the EXPERIMENTS.md
		// table records the exact numbers).
		if row.TE.TE > dense.TE.TE+0.05 {
			t.Fatalf("%s TE %g vs dense %g", row.Label, row.TE.TE, dense.TE.TE)
		}
		if row.RelErr > dense.RelErr+0.01 {
			t.Fatalf("%s rel err %g vs dense %g", row.Label, row.RelErr, dense.RelErr)
		}
	}
}

// TestChipPlacementReducedMatchesDenseSelection pins the headline
// equivalence on real pipeline data (not just synthetic): at 99% energy the
// reduced chip-joint selection tracks the dense one.
func TestChipPlacementReducedMatchesDenseSelection(t *testing.T) {
	p, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	dense, err := p.PlaceChipDense(8)
	if err != nil {
		t.Fatal(err)
	}
	red, err := p.PlaceChipReduced(8, basis.Config{Energy: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	in := map[int]bool{}
	for _, s := range dense.Selected {
		in[s] = true
	}
	overlap := 0
	for _, s := range red.Selected {
		if in[s] {
			overlap++
		}
	}
	if len(dense.Selected) == 0 || overlap < len(dense.Selected)-1 {
		t.Fatalf("reduced selection %v overlaps dense %v in only %d places",
			red.Selected, dense.Selected, overlap)
	}
}
