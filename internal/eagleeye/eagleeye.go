// Package eagleeye implements the comparison baseline: the Eagle-Eye
// statistical noise-sensor-placement framework of Wang et al. (ICCAD 2013),
// as characterized in the paper under reproduction.
//
// Eagle-Eye places sensors to minimize miss error only: a sensor alarms when
// its own voltage crosses the emergency threshold, so placement greedily
// maximizes the number of training emergencies covered by at least one
// sensor. Because emergency coverage is a monotone submodular objective, the
// greedy algorithm is the standard near-optimal (1 − 1/e) strategy — which
// matches the published description of Eagle-Eye as "near-optimal" and
// explains the behaviour the paper highlights: it gravitates to the
// candidate sites with the worst voltage noise.
package eagleeye

import (
	"fmt"
	"sort"

	"voltsense/internal/mat"
)

// Placement is a fitted Eagle-Eye sensor set.
type Placement struct {
	Selected []int   // candidate indices, in selection order
	Vth      float64 // alarm threshold the sensors use
	Coverage float64 // fraction of training emergencies covered
}

// Place selects q sensors from the M candidates of x (M-by-N training
// voltages) to cover the emergencies defined by f (K-by-N critical-node
// voltages) and threshold vth.
//
// Greedy max-coverage runs first; once no remaining candidate covers any new
// emergency, the remaining slots are filled by worst-noise ranking (lowest
// observed minimum voltage), Eagle-Eye's secondary criterion.
func Place(x, f *mat.Matrix, vth float64, q int) *Placement {
	if x.Cols() != f.Cols() {
		panic(fmt.Sprintf("eagleeye: x has %d samples, f has %d", x.Cols(), f.Cols()))
	}
	if q < 0 {
		panic(fmt.Sprintf("eagleeye: negative sensor budget %d", q))
	}
	m, n := x.Rows(), x.Cols()
	if q > m {
		q = m
	}

	// Emergency samples.
	emergency := make([]bool, n)
	total := 0
	for i := 0; i < f.Rows(); i++ {
		row := f.Row(i)
		for j, v := range row {
			if v < vth && !emergency[j] {
				emergency[j] = true
				total++
			}
		}
	}

	// Per-candidate alarm sets restricted to emergency samples.
	alarm := make([][]bool, m)
	for c := 0; c < m; c++ {
		row := x.Row(c)
		a := make([]bool, n)
		for j, v := range row {
			if emergency[j] && v < vth {
				a[j] = true
			}
		}
		alarm[c] = a
	}

	covered := make([]bool, n)
	used := make([]bool, m)
	var selected []int
	coveredCount := 0

	for len(selected) < q {
		best, bestGain := -1, 0
		for c := 0; c < m; c++ {
			if used[c] {
				continue
			}
			gain := 0
			for j, a := range alarm[c] {
				if a && !covered[j] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if best < 0 {
			break // no marginal coverage left
		}
		used[best] = true
		selected = append(selected, best)
		for j, a := range alarm[best] {
			if a && !covered[j] {
				covered[j] = true
				coveredCount++
			}
		}
	}

	// Fill remaining slots with the noisiest unused candidates.
	if len(selected) < q {
		type cand struct {
			idx  int
			minV float64
		}
		var rest []cand
		for c := 0; c < m; c++ {
			if used[c] {
				continue
			}
			row := x.Row(c)
			mn := row[0]
			for _, v := range row {
				if v < mn {
					mn = v
				}
			}
			rest = append(rest, cand{idx: c, minV: mn})
		}
		sort.Slice(rest, func(a, b int) bool { return rest[a].minV < rest[b].minV })
		for _, r := range rest {
			if len(selected) >= q {
				break
			}
			selected = append(selected, r.idx)
		}
	}

	cov := 0.0
	if total > 0 {
		cov = float64(coveredCount) / float64(total)
	}
	return &Placement{Selected: selected, Vth: vth, Coverage: cov}
}

// Alarms evaluates the placed sensors on new candidate samples (M-by-N):
// sample j alarms when any selected sensor reads below Vth.
func (p *Placement) Alarms(x *mat.Matrix) []bool {
	n := x.Cols()
	out := make([]bool, n)
	for _, s := range p.Selected {
		row := x.Row(s)
		for j, v := range row {
			if v < p.Vth {
				out[j] = true
			}
		}
	}
	return out
}
