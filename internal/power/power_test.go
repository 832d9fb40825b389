package power

import (
	"math"
	"testing"

	"voltsense/internal/floorplan"
	"voltsense/internal/workload"
)

func testSetup(t *testing.T, steps int) (*floorplan.Chip, *Model, *CurrentTrace) {
	t.Helper()
	chip := floorplan.New(floorplan.DefaultConfig())
	m := DefaultModel(chip)
	tr := workload.Generate(chip, workload.Benchmarks()[0], steps, 0)
	return chip, m, m.Currents(tr)
}

func TestDefaultModelCoversAllBlocks(t *testing.T) {
	chip := floorplan.New(floorplan.DefaultConfig())
	m := DefaultModel(chip)
	for _, b := range chip.Blocks {
		if m.Dynamic[b.ID] <= 0 {
			t.Fatalf("block %s has dynamic power %v", b.Name, m.Dynamic[b.ID])
		}
		if m.Leakage[b.ID] <= 0 || m.Leakage[b.ID] >= m.Dynamic[b.ID] {
			t.Fatalf("block %s leakage %v vs dynamic %v implausible", b.Name, m.Leakage[b.ID], m.Dynamic[b.ID])
		}
	}
}

// peakCoreCurrent is the worst-case current (amps) one core can draw: every
// block of core 0 at full dynamic power plus leakage.
func peakCoreCurrent(m *Model, chip *floorplan.Chip) float64 {
	s := 0.0
	for _, b := range chip.Cores[0].Blocks {
		s += (m.Dynamic[b.ID] + m.Leakage[b.ID]) / m.VDD
	}
	return s
}

func TestPeakCoreCurrentPlausible(t *testing.T) {
	chip := floorplan.New(floorplan.DefaultConfig())
	m := DefaultModel(chip)
	peak := peakCoreCurrent(m, chip)
	// A 2.5 GHz Xeon-class core at 1.0 V peaks in the 15-35 W range.
	if peak < 15 || peak > 35 {
		t.Fatalf("peak core current = %v A, want 15-35 A at 1 V", peak)
	}
}

func TestCurrentsNonNegativeAndBounded(t *testing.T) {
	chip, m, ct := testSetup(t, 500)
	for b, row := range ct.Currents {
		limit := (m.Dynamic[b] + m.Leakage[b]) / m.VDD
		for step, i := range row {
			if i < 0 || math.IsNaN(i) {
				t.Fatalf("current[%d][%d] = %v negative or NaN", b, step, i)
			}
			if i > limit+1e-12 {
				t.Fatalf("current[%d][%d] = %v exceeds full scale %v", b, step, i, limit)
			}
		}
	}
	_ = chip
}

func TestSlewLimitEnforced(t *testing.T) {
	chip, m, ct := testSetup(t, 2000)
	_ = chip
	for b, row := range ct.Currents {
		fullScale := (m.Dynamic[b] + m.Leakage[b]) / m.VDD
		maxDelta := fullScale/float64(m.SlewSteps) + 1e-12
		for step := 1; step < len(row); step++ {
			if d := math.Abs(row[step] - row[step-1]); d > maxDelta {
				t.Fatalf("block %d current slew %v at step %d exceeds limit %v", b, d, step, maxDelta)
			}
		}
	}
}

func TestGatedBlockFallsToZero(t *testing.T) {
	chip := floorplan.New(floorplan.DefaultConfig())
	m := DefaultModel(chip)
	// Hand-build a trace: block 0 active then gated long enough for the
	// slew limiter to reach zero.
	nb := chip.NumBlocks()
	steps := 20
	tr := &workload.Trace{Benchmark: "synthetic", Steps: steps,
		Activity: make([][]float64, nb), Gated: make([][]bool, nb)}
	for b := 0; b < nb; b++ {
		tr.Activity[b] = make([]float64, steps)
		tr.Gated[b] = make([]bool, steps)
	}
	for s := 0; s < 10; s++ {
		tr.Activity[0][s] = 1.0
	}
	for s := 10; s < steps; s++ {
		tr.Gated[0][s] = true
	}
	ct := m.Currents(tr)
	if ct.Currents[0][9] < m.Dynamic[0]*0.9 {
		t.Fatalf("active current %v too low", ct.Currents[0][9])
	}
	if got := ct.Currents[0][steps-1]; got != 0 {
		t.Fatalf("gated current settled at %v, want 0", got)
	}
	// The drop must take at least SlewSteps steps.
	if ct.Currents[0][10] == 0 {
		t.Fatal("current dropped to zero instantly despite slew limiter")
	}
}

func TestUngatedIdleDrawsLeakage(t *testing.T) {
	chip := floorplan.New(floorplan.DefaultConfig())
	m := DefaultModel(chip)
	nb := chip.NumBlocks()
	tr := &workload.Trace{Benchmark: "idle", Steps: 10,
		Activity: make([][]float64, nb), Gated: make([][]bool, nb)}
	for b := 0; b < nb; b++ {
		tr.Activity[b] = make([]float64, 10)
		tr.Gated[b] = make([]bool, 10)
	}
	ct := m.Currents(tr)
	for b := 0; b < nb; b++ {
		want := m.Leakage[b] / m.VDD
		if got := ct.Currents[b][9]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("idle block %d current %v, want leakage %v", b, got, want)
		}
	}
}

func TestTotalPower(t *testing.T) {
	_, m, ct := testSetup(t, 100)
	p := 0.0
	for _, row := range ct.Currents {
		p += row[50] * m.VDD
	}
	// 8 cores, mid-activity: tens of watts, far below 8 * peak.
	chip := floorplan.New(floorplan.DefaultConfig())
	peak := peakCoreCurrent(m, chip) * m.VDD * float64(len(chip.Cores))
	if p <= 0 || p > peak {
		t.Fatalf("total power = %v, want (0, %v]", p, peak)
	}
}

func TestCurrentsPanicsOnBlockMismatch(t *testing.T) {
	chip := floorplan.New(floorplan.DefaultConfig())
	m := DefaultModel(chip)
	tr := &workload.Trace{Steps: 1, Activity: make([][]float64, 3), Gated: make([][]bool, 3)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Currents(tr)
}
