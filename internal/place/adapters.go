package place

import (
	"fmt"

	"voltsense/internal/eagleeye"
	"voltsense/internal/lasso"
)

// GroupLasso adapts the paper's own placement — the group-lasso path solver
// with warm starts and safe screening — to the Criterion interface. It
// ignores the candidate basis and works on the standardized traces directly,
// bisecting the penalized multiplier μ until the active set lands on q
// sensors (trimming to the strongest group norms when the path jumps over
// the exact count). This is the reference method every other criterion is
// benchmarked against in the shootout.
type GroupLasso struct{}

// Name returns "grouplasso".
func (GroupLasso) Name() string { return "grouplasso" }

// Select runs the path solver's count bisection (lasso.PathSolver.SelectCount).
func (GroupLasso) Select(p *Problem, q int) ([]int, error) {
	if err := p.checkBudget(q); err != nil {
		return nil, err
	}
	threshold := p.Threshold
	if threshold <= 0 {
		threshold = 1e-3
	}
	opt := p.Solver
	if opt.MaxIter == 0 {
		opt.MaxIter = 3000
	}
	sel, _, _, err := lasso.NewPathSolver(p.Z, p.G, opt).SelectCount(q, threshold)
	if err != nil {
		return nil, fmt.Errorf("place: group lasso: %w", err)
	}
	return sel, nil
}

// EagleEye adapts the Eagle-Eye coverage baseline (greedy emergency-coverage
// maximization followed by worst-noise fill) to the Criterion interface. It
// reads the raw traces and the problem's voltage threshold and ignores the
// candidate basis entirely.
type EagleEye struct{}

// Name returns "eagleeye".
func (EagleEye) Name() string { return "eagleeye" }

// Select runs the coverage greedy at the problem's Vth.
func (EagleEye) Select(p *Problem, q int) ([]int, error) {
	if err := p.checkBudget(q); err != nil {
		return nil, err
	}
	pl := eagleeye.Place(p.X, p.F, p.Vth, q)
	sel := append([]int(nil), pl.Selected...)
	if len(sel) != q {
		return nil, fmt.Errorf("place: eagle-eye returned %d sensors for budget %d", len(sel), q)
	}
	return ascending(sel), nil
}
