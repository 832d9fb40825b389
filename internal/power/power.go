// Package power is the reproduction's stand-in for McPAT: it converts
// per-block activity traces into per-block power and supply-current
// waveforms at a 22 nm-class operating point (VDD = 1.0 V), with power
// gating folded in.
//
// Dynamic power is proportional to switching activity; leakage is drawn
// whenever the block is not power-gated; gating transitions are slew-limited
// so current steps ramp over a few simulation steps, as real gating
// controllers enforce (di/dt control), rather than instantaneously.
package power

import (
	"fmt"

	"voltsense/internal/floorplan"
	"voltsense/internal/workload"
)

// Model holds per-block electrical parameters.
type Model struct {
	VDD       float64   // supply voltage, volts
	Dynamic   []float64 // peak dynamic power per block at activity 1.0, watts
	Leakage   []float64 // leakage power per block when powered, watts
	SlewSteps int       // minimum steps for a full-scale current ramp (di/dt limit)
}

// peakDynamic gives the peak dynamic power (W) of each block type at full
// activity, loosely following McPAT's 22 nm breakdown of an aggressive OoO
// core (execution and L1s dominate; TLBs and queues are small).
var peakDynamic = map[string]float64{
	"fetch": 0.50, "branchpred": 0.40, "itlb": 0.15, "l1i": 0.85, "decode": 0.70, "rename": 0.60,
	"int_issueq": 0.70, "int_regfile": 0.95, "alu0": 0.85, "alu1": 0.85, "alu2": 0.60, "muldiv": 0.70,
	"fp_issueq": 0.60, "fp_regfile": 0.95, "fpu0": 1.45, "fpu1": 1.45, "agu0": 0.50, "rob": 0.80,
	"l1d_0": 0.75, "l1d_1": 0.75, "dtlb": 0.15, "lsu": 0.85, "loadq": 0.40, "storeq": 0.40,
	"l2_0": 0.60, "l2_1": 0.60, "l2_2": 0.60, "l2_3": 0.60, "prefetch": 0.30, "mshr": 0.25,
}

// leakageFraction is leakage relative to peak dynamic power; 22 nm designs
// with high-k metal gates run roughly 15-25%. SRAM-heavy blocks leak more.
func leakageFraction(name string) float64 {
	switch name {
	case "l1i", "l1d_0", "l1d_1", "l2_0", "l2_1", "l2_2", "l2_3":
		return 0.30
	default:
		return 0.18
	}
}

// DefaultModel builds the per-block model for chip at VDD = 1.0 V.
func DefaultModel(chip *floorplan.Chip) *Model {
	m := &Model{
		VDD:       1.0,
		Dynamic:   make([]float64, chip.NumBlocks()),
		Leakage:   make([]float64, chip.NumBlocks()),
		SlewSteps: 3,
	}
	for _, b := range chip.Blocks {
		pd, ok := peakDynamic[b.Name]
		if !ok {
			panic(fmt.Sprintf("power: no dynamic power entry for block %q", b.Name))
		}
		m.Dynamic[b.ID] = pd
		m.Leakage[b.ID] = pd * leakageFraction(b.Name)
	}
	return m
}

// CurrentTrace holds per-block supply-current waveforms in amps.
type CurrentTrace struct {
	Benchmark string
	Steps     int
	Currents  [][]float64 // [numBlocks][steps], amps drawn from the grid
}

// Currents converts an activity trace into block current waveforms.
//
// Instantaneous block power is activity*Dynamic + Leakage (leakage only when
// not gated); current is power/VDD, then slew-limited so no block's draw
// changes faster than its full-scale range divided by SlewSteps per step.
func (m *Model) Currents(tr *workload.Trace) *CurrentTrace {
	return m.CurrentsScaledLeakage(tr, nil)
}

// CurrentsScaledLeakage is Currents with a per-block leakage multiplier
// (nil means 1.0 everywhere), the hook the thermal feedback loop uses:
// hotter blocks leak more.
func (m *Model) CurrentsScaledLeakage(tr *workload.Trace, leakScale []float64) *CurrentTrace {
	nb := len(tr.Activity)
	if nb != len(m.Dynamic) {
		panic(fmt.Sprintf("power: trace has %d blocks, model has %d", nb, len(m.Dynamic)))
	}
	if leakScale != nil && len(leakScale) != nb {
		panic(fmt.Sprintf("power: %d leakage scales for %d blocks", len(leakScale), nb))
	}
	ct := &CurrentTrace{Benchmark: tr.Benchmark, Steps: tr.Steps, Currents: make([][]float64, nb)}
	for b := 0; b < nb; b++ {
		leak := m.Leakage[b]
		if leakScale != nil {
			leak *= leakScale[b]
		}
		row := make([]float64, tr.Steps)
		fullScale := (m.Dynamic[b] + leak) / m.VDD
		maxDelta := fullScale
		if m.SlewSteps > 1 {
			maxDelta = fullScale / float64(m.SlewSteps)
		}
		prev := leak / m.VDD // assume powered, idle at t<0
		for t := 0; t < tr.Steps; t++ {
			p := tr.Activity[b][t] * m.Dynamic[b]
			if !tr.Gated[b][t] {
				p += leak
			}
			want := p / m.VDD
			// Slew limiting.
			d := want - prev
			if d > maxDelta {
				want = prev + maxDelta
			} else if d < -maxDelta {
				want = prev - maxDelta
			}
			row[t] = want
			prev = want
		}
		ct.Currents[b] = row
	}
	return ct
}
