package pdn

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// benchLoads synthesizes m distinct load sequences over steps time steps
// for an n-node grid, deterministic per column.
func benchLoads(n, m, steps int, seed int64) [][][]float64 {
	out := make([][][]float64, m)
	for c := 0; c < m; c++ {
		rng := rand.New(rand.NewSource(seed + int64(c)))
		cols := make([][]float64, steps)
		for t := 0; t < steps; t++ {
			ld := make([]float64, n)
			for i := 0; i < n; i += 7 {
				ld[i] = 0.02 * rng.Float64() * float64(c+1)
			}
			cols[t] = ld
		}
		out[c] = cols
	}
	return out
}

// TestBatchMatchesLoopedSimulators: the core batch contract — a
// BatchSimulator's columns are bitwise identical to independent Simulators
// stepped with the same loads, on both backends.
func TestBatchMatchesLoopedSimulators(t *testing.T) {
	g := smallGrid()
	n := g.NumNodes()
	const m, steps = 3, 40
	loads := benchLoads(n, m, steps, 7)
	for _, backend := range []Backend{Banded, Sparse} {
		opts := SimOptions{Backend: backend}
		bs, err := NewBatchSimulator(g, testDT, m, opts)
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		sims := make([]*Simulator, m)
		for c := range sims {
			if sims[c], err = NewSimulatorOpts(g, testDT, opts); err != nil {
				t.Fatalf("%v: %v", backend, err)
			}
		}
		stepLoads := make([][]float64, m)
		for step := 0; step < steps; step++ {
			for c := 0; c < m; c++ {
				stepLoads[c] = loads[c][step]
			}
			vs := bs.Step(stepLoads)
			for c := 0; c < m; c++ {
				want := sims[c].Step(stepLoads[c])
				for i := range want {
					if vs[c][i] != want[i] {
						t.Fatalf("%v step %d col %d node %d: batch %v, single %v (not bitwise identical)",
							backend, step, c, i, vs[c][i], want[i])
					}
				}
			}
		}
	}
}

// TestBatchSettleMatchesSimulator: SettleColumn reproduces Simulator.Settle
// bitwise on both backends, and a settle after stepping reproduces a fresh
// simulator's settle bitwise: the DC solve never starts from the history.
func TestBatchSettleMatchesSimulator(t *testing.T) {
	g := smallGrid()
	n := g.NumNodes()
	loads := make([]float64, n)
	for i := 0; i < n; i += 5 {
		loads[i] = 0.01
	}
	const m, steps = 2, 12
	history := benchLoads(n, m, steps, 3)
	for _, backend := range []Backend{Banded, Sparse} {
		opts := SimOptions{Backend: backend}
		fresh, err := NewSimulatorOpts(g, testDT, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Settle(loads); err != nil {
			t.Fatal(err)
		}
		bs, err := NewBatchSimulator(g, testDT, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := bs.SettleColumn(1, loads); err != nil {
			t.Fatal(err)
		}
		sameSettle(t, fmt.Sprintf("%v batch column", backend), fresh, bs.vCols[1], bs.padCurCols[1])

		s, err := NewSimulatorOpts(g, testDT, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Settle(history[0][0]); err != nil {
			t.Fatal(err)
		}
		cols := make([][]float64, m)
		for step := 0; step < steps; step++ {
			s.Step(history[0][step])
			for c := range cols {
				cols[c] = history[c][step]
			}
			bs.Step(cols)
		}
		if err := s.Settle(loads); err != nil {
			t.Fatal(err)
		}
		if err := bs.SettleColumn(0, loads); err != nil {
			t.Fatal(err)
		}
		sameSettle(t, fmt.Sprintf("%v simulator after %d steps", backend, steps), fresh, s.v, s.padCur)
		sameSettle(t, fmt.Sprintf("%v batch column after %d steps", backend, steps), fresh, bs.vCols[0], bs.padCurCols[0])
	}
}

// sameSettle requires v and padCur to equal want's settled state bitwise.
func sameSettle(t *testing.T, what string, want *Simulator, v, padCur []float64) {
	t.Helper()
	for i := range want.v {
		if v[i] != want.v[i] {
			t.Fatalf("%s node %d: %v, fresh settle %v", what, i, v[i], want.v[i])
		}
	}
	for p := range want.padCur {
		if padCur[p] != want.padCur[p] {
			t.Fatalf("%s pad %d: current %v, fresh settle %v", what, p, padCur[p], want.padCur[p])
		}
	}
}

// TestStepInvariantUnderSparseWorkers: settled and transient voltages from
// the sparse backend are bitwise identical across worker bounds, at
// GOMAXPROCS 1 and 2. The 180×160 mesh has 28,800 nodes, enough that the
// SpMV, dot and vector kernels split into two shares at Workers: 2.
func TestStepInvariantUnderSparseWorkers(t *testing.T) {
	g := scaledGrid(180, 160)
	n := g.NumNodes()
	const steps = 2
	loads := benchLoads(n, 1, steps, 13)[0]
	var ref [][]float64
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, w := range []int{1, 2} {
			s, err := NewSimulatorOpts(g, testDT, SimOptions{Backend: Sparse, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Settle(loads[0]); err != nil {
				t.Fatal(err)
			}
			got := [][]float64{append([]float64(nil), s.v...)}
			for step := 0; step < steps; step++ {
				got = append(got, append([]float64(nil), s.Step(loads[step])...))
			}
			if ref == nil {
				ref = got
				continue
			}
			for step := range ref {
				for i := range ref[step] {
					if got[step][i] != ref[step][i] {
						t.Fatalf("procs=%d workers=%d snapshot %d (0 = settle) node %d: %v, want %v (not bitwise identical)",
							procs, w, step, i, got[step][i], ref[step][i])
					}
				}
			}
		}
	}
}

// TestBatchRunAllMatchesRun: RunAll (settle + step + callbacks) reproduces
// per-column Simulator.Run bitwise.
func TestBatchRunAllMatchesRun(t *testing.T) {
	g := smallGrid()
	nb := len(g.BlockNodes)
	const m, steps = 2, 25
	currents := make([][][]float64, m)
	for c := 0; c < m; c++ {
		rng := rand.New(rand.NewSource(100 + int64(c)))
		currents[c] = make([][]float64, steps)
		for t := 0; t < steps; t++ {
			cur := make([]float64, nb)
			for b := range cur {
				cur[b] = 0.05 * rng.Float64()
			}
			currents[c][t] = cur
		}
	}
	opts := SimOptions{Backend: Sparse}
	bs, err := NewBatchSimulator(g, testDT, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotV := make([][][]float64, m)
	for c := range gotV {
		gotV[c] = make([][]float64, steps)
	}
	err = bs.RunAll(steps,
		func(c, t int) []float64 { return currents[c][t] },
		func(c, t int, v []float64) { gotV[c][t] = append([]float64(nil), v...) })
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < m; c++ {
		s, err := NewSimulatorOpts(g, testDT, opts)
		if err != nil {
			t.Fatal(err)
		}
		step := 0
		err = s.Run(steps,
			func(t int) []float64 { return currents[c][t] },
			func(t int, v []float64) {
				for i := range v {
					if gotV[c][t][i] != v[i] {
						panic("mismatch")
					}
				}
				step++
			})
		if err != nil {
			t.Fatal(err)
		}
		if step != steps {
			t.Fatalf("col %d: compared %d steps, want %d", c, step, steps)
		}
	}
}

// TestBatchSimulatorRejectsBadArgs covers the constructor's validation.
func TestBatchSimulatorRejectsBadArgs(t *testing.T) {
	g := smallGrid()
	if _, err := NewBatchSimulator(g, 0, 2, SimOptions{}); err == nil {
		t.Fatal("zero dt accepted")
	}
	if _, err := NewBatchSimulator(g, testDT, 0, SimOptions{}); err == nil {
		t.Fatal("zero nrhs accepted")
	}
	if _, err := NewBatchSimulator(g, testDT, 2, SimOptions{Backend: Backend(99)}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestResolveBackend pins the exported resolution rule.
func TestResolveBackend(t *testing.T) {
	g := smallGrid()
	if got := ResolveBackend(g, Auto); got != Banded {
		t.Fatalf("narrow mesh resolved to %v, want banded", got)
	}
	if got := ResolveBackend(g, Sparse); got != Sparse {
		t.Fatalf("explicit sparse resolved to %v", got)
	}
}
