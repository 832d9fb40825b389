// Package place is the pluggable sensor-placement criterion subsystem: one
// interface over every selection strategy the repository knows, from the
// paper's group lasso and the Eagle-Eye coverage baseline to the
// basis-driven optimality criteria of the wider placement literature
// (D- and E-optimal greedy, Ranieri et al.'s FrameSense frame-potential
// minimization, and worst-case-scenario coverage), plus heterogeneous sensor
// classes — reference vs low-cost devices with per-class noise variance,
// budget-constrained mixed placement, and a GLS refit that weighs each
// sensor by its precision. The D-optimal greedy is also the QR-pivot greedy
// of PySensors/SSPOR: up to the basis rank the two pick the same sensors
// (DESIGN.md §13), and past it D-optimality keeps ranking candidates where
// pivoted QR has no residual left to rank by.
//
// The common formulation is the one PySensors 2.0 and the Ranieri line of
// work share: fit a rank-r POD basis U of the standardized candidate traces
// (r ≪ M), give every candidate site m its basis row ψ_m = U[m,:] ∈ ℝʳ, and
// judge a sensor set S by how well the rows {ψ_s : s ∈ S} condition the
// linear inverse problem of recovering the r field coefficients — and hence
// anything linearly predictable from the field, including the critical-node
// voltages. Each criterion scores that conditioning differently (volume,
// worst direction, coherence, worst location); the adapters for group lasso
// and Eagle-Eye ignore ψ and run the original algorithms, so every method is
// selectable through the single Criterion interface and comparable on equal
// terms (see experiments.CriteriaShootout and DESIGN.md §13).
package place

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"voltsense/internal/basis"
	"voltsense/internal/lasso"
	"voltsense/internal/mat"
)

// DefaultEnergy is the POD energy fraction Problem construction captures in
// the candidate basis when the caller does not pin a rank.
const DefaultEnergy = 0.999

// Problem carries everything any criterion may need: the raw matrices (for
// the Eagle-Eye adapter), the standardized traces (for the group-lasso
// adapter), and the rank-r candidate basis (for every basis-driven
// criterion). Build it once with NewProblem and reuse it across criteria —
// that is what makes a shootout cheap.
type Problem struct {
	X *mat.Matrix // M×N raw candidate voltages
	F *mat.Matrix // K×N raw critical-node voltages

	Z *mat.Matrix // M×N standardized candidates
	G *mat.Matrix // K×N standardized targets

	// Psi is the M×r candidate POD basis: row m holds candidate m's
	// loadings on the r dominant modes of Z, each column scaled by its
	// mode's relative singular value σ_j/σ_1. The energy weighting makes
	// every criterion see modes in proportion to how much of the field they
	// actually carry — without it, coverage-style criteria (frame potential,
	// worst-case variance) spend sensors conditioning low-energy tail modes
	// that contribute nothing to reconstruction. Basis-driven criteria place
	// sensors so the selected rows condition coefficient recovery well.
	Psi *mat.Matrix
	// Coef is the r×N matrix of training coefficients in the scaled basis
	// (diag(σ_1/σ_j)·UᵀZ, so that Psi·Coef ≈ Z row-wise), the regression
	// inputs for the GLS refit.
	Coef *mat.Matrix
	// TargetLoad is the K×r regression of the standardized targets on the
	// training coefficients (G ≈ TargetLoad·Coef): row k says how critical
	// node k loads on each basis mode. The worst-case criterion minimizes
	// the largest posterior variance over these rows — the locations the
	// sensors exist to reconstruct.
	TargetLoad *mat.Matrix
	// CandBasis is the fitted basis behind Psi and Coef.
	CandBasis *basis.Basis

	XStd *mat.Standardization // transform that produced Z
	FStd *mat.Standardization // transform that produced G

	Vth       float64       // emergency threshold for coverage criteria
	Threshold float64       // group-norm selection threshold for the lasso adapter
	Solver    lasso.Options // solver options for the lasso adapter
}

// NewProblem standardizes the data, fits the candidate POD basis (bc.Rank
// pins the rank; otherwise the smallest rank reaching bc.Energy, default
// DefaultEnergy) and projects the training coefficients. vth parameterizes
// the Eagle-Eye adapter; pass detect.DefaultVth-like thresholds in volts.
func NewProblem(x, f *mat.Matrix, bc basis.Config, vth float64) (*Problem, error) {
	if x == nil || f == nil {
		return nil, errors.New("place: missing candidate or target matrix")
	}
	if x.Cols() != f.Cols() {
		return nil, fmt.Errorf("place: X has %d samples, F has %d", x.Cols(), f.Cols())
	}
	if x.Cols() == 0 {
		return nil, errors.New("place: empty dataset")
	}
	if bc.Rank == 0 && bc.Energy == 0 {
		bc.Energy = DefaultEnergy
	}
	z, xStd := mat.Standardize(x)
	g, fStd := mat.Standardize(f)
	b, err := basis.Fit(z, bc)
	if err != nil {
		return nil, fmt.Errorf("place: candidate basis: %w", err)
	}
	coef, err := b.Project(z)
	if err != nil {
		return nil, fmt.Errorf("place: candidate projection: %w", err)
	}
	psi := b.Components()
	scaleBasis(psi, coef, b.SingularValues())
	// Target loadings: least-squares of Gᵀ on Coefᵀ, one QR for all K nodes.
	// Coef's rows are the design's columns and G's rows its right-hand
	// sides, so the solution's rows are already the K loadings.
	lt, err := mat.FactorQRColumns(coef).SolveRows(g)
	if err != nil {
		return nil, fmt.Errorf("place: target loadings: %w", err)
	}
	return &Problem{
		X: x, F: f,
		Z: z, G: g,
		Psi:        psi,
		Coef:       coef,
		TargetLoad: lt,
		CandBasis:  b,
		XStd:       xStd, FStd: fStd,
		Vth: vth,
	}, nil
}

// Candidates returns M, the number of candidate sites.
func (p *Problem) Candidates() int { return p.X.Rows() }

// Rank returns r, the retained candidate-basis rank.
func (p *Problem) Rank() int { return p.Psi.Cols() }

// checkBudget validates a requested sensor count against the pool.
func (p *Problem) checkBudget(q int) error {
	if q < 1 {
		return fmt.Errorf("place: sensor count %d must be positive", q)
	}
	if q > p.Candidates() {
		return fmt.Errorf("place: cannot place %d sensors among %d candidates", q, p.Candidates())
	}
	return nil
}

// Criterion selects sensor sets. Select returns exactly q candidate indices
// in ascending order (ready for the OLS refit); implementations are
// deterministic and never mutate the Problem, so concurrent Select calls may
// share one Problem (the shootout runs every criterion in parallel on it).
type Criterion interface {
	// Name returns the canonical flag value (e.g. "dopt") the criterion
	// parses from.
	Name() string
	// Select picks q sensors for the problem.
	Select(p *Problem, q int) ([]int, error)
}

// Names returns every criterion name ParseCriterion accepts, sorted — the
// CLI help text and the shootout default list.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// registry maps canonical names to constructors. Criteria are stateless
// between Select calls, so a shared instance per name is safe.
var registry = map[string]func() Criterion{
	"grouplasso": func() Criterion { return GroupLasso{} },
	"eagleeye":   func() Criterion { return EagleEye{} },
	"dopt":       func() Criterion { return DOpt{} },
	"eopt":       func() Criterion { return EOpt{} },
	"framesense": func() Criterion { return FrameSense{} },
	"worstcase":  func() Criterion { return WorstCase{} },
}

// ParseCriterion resolves a criterion by its canonical name (as listed by
// Names; matching is case-insensitive). It is the single source of truth for
// the sensorplace -criterion flag and the docscheck flag-value audit.
func ParseCriterion(name string) (Criterion, error) {
	ctor, ok := registry[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return nil, fmt.Errorf("place: unknown criterion %q (want one of %s)", name, strings.Join(Names(), ", "))
	}
	return ctor(), nil
}

// scaleBasis applies the energy weighting in place: column j of psi is
// multiplied by s_j = max(σ_j, 1e-12·σ_1)/σ_1 and row j of coef divided by
// it, preserving psi·coef ≈ Z while letting criteria see each mode at its
// true share of the field energy. The floor keeps an exactly-degenerate
// trailing mode from blowing up the coefficients.
func scaleBasis(psi, coef *mat.Matrix, sv []float64) {
	if len(sv) == 0 || sv[0] <= 0 {
		return
	}
	r := psi.Cols()
	for j := 0; j < r && j < len(sv); j++ {
		s := sv[j] / sv[0]
		if s < 1e-12 {
			s = 1e-12
		}
		for i := 0; i < psi.Rows(); i++ {
			psi.Set(i, j, psi.At(i, j)*s)
		}
		row := coef.Row(j)
		for k := range row {
			row[k] /= s
		}
	}
}

// ascending sorts a selection in place and returns it, the contract every
// criterion's Select shares.
func ascending(sel []int) []int {
	sort.Ints(sel)
	return sel
}
