package pdn

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"voltsense/internal/mat"
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
// (batches of width 1) stepped with the same loads, on both backends: on
// sparse the batch PCG against the single-RHS PCG.
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

// TestSparseBlocksMatchSimulators: a sparse batch split into column
// blocks — one per worker, stepped concurrently — matches width-1
// Simulators under ==, voltages and pad currents, at Workers 0–3 and
// GOMAXPROCS 1 and 2. Each batch settles every column through SettleColumn
// first, then is reset and runs RunAll, which settles again inside the
// blocks' shares and steps. At 2 workers width 3 has a one-column block, which steps
// through the single-RHS PCG, and width 5 at 3 workers has blocks of
// unequal width.
func TestSparseBlocksMatchSimulators(t *testing.T) {
	checkBlocksMatchSimulators(t, Sparse, []int{2, 3, 5, 19})
}

// TestBandedBlocksMatchSimulators is the banded twin of
// TestSparseBlocksMatchSimulators, at every width from 1 to 19: each block
// solves its columns interleaved at banded.ColumnStride of its width, so
// a column lands in every lane position and beside zero pad lanes, while
// the width-1 Simulators each sweep one column padded to the kernel's
// width. Every settled and stepped column, voltages and pad currents,
// equals its Simulator's under ==.
func TestBandedBlocksMatchSimulators(t *testing.T) {
	widths := make([]int, 19)
	for i := range widths {
		widths[i] = i + 1
	}
	checkBlocksMatchSimulators(t, Banded, widths)
}

// checkBlocksMatchSimulators runs the block contract of
// TestSparseBlocksMatchSimulators on the given backend and batch widths.
func checkBlocksMatchSimulators(t *testing.T, backend Backend, widths []int) {
	t.Helper()
	g := smallGrid()
	nb := len(g.BlockNodes)
	const steps = 20
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	// Column c carries the same currents at every width, so one Simulator
	// per column gives the expected states for all widths.
	cols := slices.Max(widths)
	currents := make([][][]float64, cols)
	for c := range currents {
		rng := rand.New(rand.NewSource(300 + int64(c)))
		currents[c] = make([][]float64, steps)
		for step := range currents[c] {
			cur := make([]float64, nb)
			for b := range cur {
				cur[b] = 0.05 * rng.Float64()
			}
			currents[c][step] = cur
		}
	}
	// want[c][0] is column c's settled state, want[c][t+1] its state
	// after step t: node voltages followed by pad currents.
	want := make([][][]float64, cols)
	for c := range want {
		sim, err := NewSimulatorOpts(g, testDT, SimOptions{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		loader := NewBlockLoader(g)
		if err := sim.Settle(loader.Loads(currents[c][0])); err != nil {
			t.Fatal(err)
		}
		want[c] = append(want[c], state(sim.b.vCols[0], sim.b.padCurCols[0]))
		for step := 0; step < steps; step++ {
			v := sim.Step(loader.Loads(currents[c][step]))
			want[c] = append(want[c], state(v, sim.b.padCurCols[0]))
		}
	}
	for _, m := range widths {
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for _, w := range []int{0, 1, 2, 3} {
				k := w
				if k == 0 {
					k = mat.Parallelism()
				}
				k = min(k, m)
				what := fmt.Sprintf("%v width %d procs %d workers %d", backend, m, procs, w)
				bs, err := NewBatchSimulator(g, testDT, m, SimOptions{Backend: backend, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if len(bs.blocks) != k {
					t.Fatalf("%s: %d blocks, want %d", what, len(bs.blocks), k)
				}
				loader := NewBlockLoader(g)
				for c := 0; c < m; c++ {
					if err := bs.SettleColumn(c, loader.Loads(currents[c][0])); err != nil {
						t.Fatal(err)
					}
					sameState(t, fmt.Sprintf("%s SettleColumn %d", what, c), want[c][0], bs.vCols[c], bs.padCurCols[c])
				}
				bs.Reset() // RunAll must settle every column itself
				err = bs.RunAll(steps, func(c, step int) []float64 { return currents[c][step] }, func(c, step int, v []float64) {
					sameState(t, fmt.Sprintf("%s RunAll column %d step %d", what, c, step), want[c][step+1], v, bs.padCurCols[c])
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// state copies node voltages followed by pad currents into one slice.
func state(v, padCur []float64) []float64 {
	return append(append([]float64(nil), v...), padCur...)
}

// sameState requires v followed by padCur to equal want bitwise.
func sameState(t *testing.T, what string, want, v, padCur []float64) {
	t.Helper()
	for i, x := range state(v, padCur) {
		if x != want[i] {
			if i < len(v) {
				t.Fatalf("%s node %d: %v, simulator %v (not bitwise identical)", what, i, x, want[i])
			}
			t.Fatalf("%s pad %d: current %v, simulator %v (not bitwise identical)", what, i-len(v), x, want[i])
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
		sameSettle(t, fmt.Sprintf("%v simulator after %d steps", backend, steps), fresh, s.b.vCols[0], s.b.padCurCols[0])
		sameSettle(t, fmt.Sprintf("%v batch column after %d steps", backend, steps), fresh, bs.vCols[0], bs.padCurCols[0])
	}
}

// sameSettle requires v and padCur to equal want's settled state bitwise.
func sameSettle(t *testing.T, what string, want *Simulator, v, padCur []float64) {
	t.Helper()
	for i := range want.b.vCols[0] {
		if v[i] != want.b.vCols[0][i] {
			t.Fatalf("%s node %d: %v, fresh settle %v", what, i, v[i], want.b.vCols[0][i])
		}
	}
	for p := range want.b.padCurCols[0] {
		if padCur[p] != want.b.padCurCols[0][p] {
			t.Fatalf("%s pad %d: current %v, fresh settle %v", what, p, padCur[p], want.b.padCurCols[0][p])
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
			got := [][]float64{append([]float64(nil), s.b.vCols[0]...)}
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
// a hand-stepped Simulator per column bitwise.
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
		compared := 0
		run(t, s, g, steps, func(step int) []float64 { return currents[c][step] }, func(step int, v []float64) {
			for i := range v {
				if gotV[c][step][i] != v[i] {
					t.Fatalf("col %d step %d node %d: RunAll %v, hand-stepped %v", c, step, i, gotV[c][step][i], v[i])
				}
			}
			compared++
		})
		if compared != steps {
			t.Fatalf("col %d: compared %d steps, want %d", c, compared, steps)
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
