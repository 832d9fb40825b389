package pdn

import (
	"fmt"
	"math"
	"testing"
)

// blockLoad spreads amps evenly over the nodes of one block.
func blockLoad(n int, nodes []int, amps float64) []float64 {
	loads := make([]float64, n)
	for _, nd := range nodes {
		loads[nd] = amps / float64(len(nodes))
	}
	return loads
}

// Every backward-Euler step conserves charge: the mesh conductances only
// move current between nodes, so the pads deliver exactly the loads plus
// the current charging the node capacitances,
//
//	Σ_p i_pad[t] = Σ_i load_i[t] + Σ_i (C_i/h)·(v_i[t] − v_i[t−1]).
//
// Checked from Reset through a 3 A load step and its release, where the
// capacitors first discharge and then recharge, on both backends, to 1e-9
// of the step's current (after the release every term decays towards zero,
// so the solver's roundoff cannot be judged against the terms themselves).
// Voltages above VDD are not an error: the pad inductance rings past the
// rail.
func TestTransientConservesCharge(t *testing.T) {
	g := smallGrid()
	n := g.NumNodes()
	const amps = 3.0
	load := blockLoad(n, g.BlockNodes[14], amps)
	idle := make([]float64, n)
	for _, backend := range []Backend{Banded, Sparse} {
		s, err := NewSimulatorBackend(g, testDT, backend)
		if err != nil {
			t.Fatal(err)
		}
		prev := append([]float64(nil), s.v...)
		worst := 0.0
		for step := 0; step < 600; step++ {
			loads := load
			if step >= 300 {
				loads = idle
			}
			v := s.Step(loads)
			var pads, draw, charge float64
			for _, c := range s.padCur {
				pads += c
			}
			for _, ld := range loads {
				draw += ld
			}
			for i, x := range v {
				charge += s.cOverH[i] * (x - prev[i])
			}
			rel := math.Abs(pads-draw-charge) / amps
			if rel > 1e-9 {
				t.Fatalf("%v step %d: pads deliver %.15g A, loads %.15g A plus charging %.15g A (gap %g of the %g A step)",
					backend, step, pads, draw, charge, rel, amps)
			}
			worst = math.Max(worst, rel)
			copy(prev, v)
		}
		t.Logf("%v: worst charge gap %.3g of the load step", backend, worst)
	}
}

// Under a constant load a transient started from the quiescent state
// decays onto the DC operating point Settle computes for that load.
func TestConstantLoadDecaysOntoSettle(t *testing.T) {
	g := smallGrid()
	loads := blockLoad(g.NumNodes(), g.BlockNodes[10], 2.0)
	for _, backend := range []Backend{Banded, Sparse} {
		what := fmt.Sprint(backend)
		dc, err := NewSimulatorBackend(g, testDT, backend)
		if err != nil {
			t.Fatal(err)
		}
		if err := dc.Settle(loads); err != nil {
			t.Fatal(err)
		}
		s, err := NewSimulatorBackend(g, testDT, backend)
		if err != nil {
			t.Fatal(err)
		}
		var v []float64
		for step := 0; step < 20000; step++ {
			v = s.Step(loads)
		}
		worst := 0.0
		for i, x := range v {
			worst = math.Max(worst, math.Abs(x-dc.v[i]))
		}
		if worst > 1e-9 {
			t.Fatalf("%s: after 20000 steps the transient is %g V from the settled solution", what, worst)
		}
		t.Logf("%s: max |v − v_DC| = %.3g V after 20000 steps", what, worst)
	}
}
