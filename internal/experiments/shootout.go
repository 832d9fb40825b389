package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"voltsense/internal/basis"
	"voltsense/internal/core"
	"voltsense/internal/detect"
	"voltsense/internal/place"
)

// This file hosts the placement-criteria shootout: every registered
// criterion (internal/place) plus the budget-constrained mixed-class
// placement run against the same chip-joint problem, refit, and ranked on
// held-out detection quality and placement wall-clock. It is the
// experimental backbone of DESIGN.md §13's "which criterion should I use"
// matrix.

// MixedLabel names the heterogeneous-class row of the shootout table.
const MixedLabel = "mixed"

// ShootoutRow is one criterion's result: q sensors placed by that criterion
// on the chip-joint training set, refit dense, scored on the pooled held-out
// maps. The mixed row instead spends a cost budget across reference and
// low-cost devices and refits with per-class GLS weighting.
type ShootoutRow struct {
	Criterion string
	Sensors   int
	RefCount  int // reference-class sensors (mixed row; == Sensors elsewhere)
	LowCount  int // low-cost-class sensors (mixed row; 0 elsewhere)
	Cost      float64
	Place     time.Duration // wall-clock of the selection itself
	RelErr    float64       // relative prediction error on held-out maps
	Rates     detect.Rates  // chip-level ME/WAE/TE on held-out maps
	Selected  []int
}

// ShootoutData is the ranked table: rows sorted by total error ascending
// (best detector first), ties broken by relative error ascending.
type ShootoutData struct {
	Q          int             // homogeneous sensor budget
	Rank       int             // candidate POD basis rank the basis-driven criteria used
	Budget     float64         // cost budget of the mixed row
	Spec       place.ClassSpec // pricing of the mixed row
	Candidates int
	Targets    int
	Rows       []ShootoutRow
}

// CriteriaShootout runs every named criterion on one shared chip-joint
// placement problem — one standardization + candidate POD fit, q sensors
// each — plus, when budget > 0, the mixed-class placement under spec. The
// criteria run one at a time, so the Place column times each selection
// alone. Homogeneous selections are refit with the paper's dense OLS so the
// comparison isolates the selection; the mixed row uses the GLS refit its
// per-class noise model requires. Passing criteria == nil runs place.Names().
func (p *Pipeline) CriteriaShootout(q int, criteria []string, spec place.ClassSpec, budget float64) (*ShootoutData, error) {
	if criteria == nil {
		criteria = place.Names()
	}
	ds := p.chipTrainDataset()
	if q < 1 || q > ds.X.Rows() {
		return nil, fmt.Errorf("experiments: shootout sensor count %d out of range 1..%d", q, ds.X.Rows())
	}
	// Rank-q candidate basis: the PySensors convention (r = q) that makes the
	// selected rows square for coefficient recovery, and the floor the
	// budgeted mixed placement is guaranteed to cover.
	cc := core.CriterionConfig{
		Basis:     basis.Config{Rank: q},
		Vth:       p.Cfg.Vth,
		Threshold: p.threshold(),
		Solver:    p.Cfg.Solver,
	}
	prob, err := core.NewPlacementProblem(ds, cc)
	if err != nil {
		return nil, err
	}
	full := &core.Dataset{X: p.Train.CandV, F: p.Train.CritV}
	test := p.TestAll()
	truth := detect.TruthFromVoltages(test.CritV, p.Cfg.Vth)

	d := &ShootoutData{
		Q: q, Rank: prob.Rank(), Budget: budget, Spec: spec,
		Candidates: prob.Candidates(), Targets: ds.F.Rows(),
	}
	score := func(row *ShootoutRow, pred *core.Predictor) {
		row.RelErr = p.RelErrorOn(pred, test)
		row.Rates = detect.Score(truth, detect.AlarmsFromPredictions(p.PredictTest(pred, test), p.Cfg.Vth))
	}

	// Selections run one after another, so each Place time is that
	// criterion's own cost rather than its share of contended cores.
	rows := make([]ShootoutRow, len(criteria))
	for i, name := range criteria {
		crit, err := place.ParseCriterion(name)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		sel, err := crit.Select(prob, q)
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		rows[i] = ShootoutRow{
			Criterion: crit.Name(), Sensors: len(sel), RefCount: len(sel),
			Place: elapsed, Selected: sel,
		}
	}
	for i := range rows {
		pred, err := core.BuildPredictor(full, rows[i].Selected)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s refit: %w", rows[i].Criterion, err)
		}
		score(&rows[i], pred)
		d.Rows = append(d.Rows, rows[i])
	}

	if budget > 0 {
		start := time.Now()
		mp, err := place.PlaceMixed(prob, spec, budget)
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("experiments: mixed placement: %w", err)
		}
		pred, err := core.BuildGLSPredictor(prob, mp.Selected, mp.NoiseVariances(spec))
		if err != nil {
			return nil, fmt.Errorf("experiments: mixed GLS refit: %w", err)
		}
		ref, low := mp.CountByClass()
		row := ShootoutRow{
			Criterion: MixedLabel, Sensors: len(mp.Selected),
			RefCount: ref, LowCount: low, Cost: mp.Cost,
			Place: elapsed, Selected: mp.Selected,
		}
		score(&row, pred)
		d.Rows = append(d.Rows, row)
	}

	sort.SliceStable(d.Rows, func(a, b int) bool {
		ra, rb := d.Rows[a], d.Rows[b]
		if ra.Rates.TE != rb.Rates.TE {
			return ra.Rates.TE < rb.Rates.TE
		}
		return ra.RelErr < rb.RelErr
	})
	return d, nil
}

// Baseline returns the group-lasso row — the paper's own method, the yard
// stick the acceptance bound (every criterion's total error within 15% of
// the baseline's, i.e. TE ≤ 1.15× grouplasso's) is measured against — or
// nil if it was not part of the run.
func (d *ShootoutData) Baseline() *ShootoutRow {
	for i := range d.Rows {
		if d.Rows[i].Criterion == "grouplasso" {
			return &d.Rows[i]
		}
	}
	return nil
}

// Render formats the ranked shootout as a fixed-width table.
func (d *ShootoutData) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "placement criteria shootout: %d sensors (basis rank %d), %d candidates, %d critical nodes\n",
		d.Q, d.Rank, d.Candidates, d.Targets)
	if d.Budget > 0 {
		fmt.Fprintf(&b, "mixed row: cost budget %g (reference cost %g var %g, low-cost cost %g var %g)\n",
			d.Budget, d.Spec.RefCost, d.Spec.RefVar, d.Spec.LowCostCost, d.Spec.LowCostVar)
	}
	fmt.Fprintf(&b, "%-12s %8s %11s %10s %11s %8s %8s %8s\n",
		"criterion", "sensors", "ref/low", "place", "rel err(%)", "ME", "WAE", "TE")
	for _, r := range d.Rows {
		classes := fmt.Sprintf("%d/%d", r.RefCount, r.LowCount)
		fmt.Fprintf(&b, "%-12s %8d %11s %10s %11.3f %8.4f %8.4f %8.4f\n",
			r.Criterion, r.Sensors, classes, r.Place.Round(time.Millisecond),
			100*r.RelErr, r.Rates.ME, r.Rates.WAE, r.Rates.TE)
	}
	return b.String()
}

// CSV emits the ranked shootout as comma-separated rows.
func (d *ShootoutData) CSV() string {
	var b strings.Builder
	b.WriteString("criterion,sensors,ref,lowcost,cost,place_ms,rel_err_pct,me,wae,te\n")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%.1f,%.2f,%.4f,%.4f,%.4f,%.4f\n",
			r.Criterion, r.Sensors, r.RefCount, r.LowCount, r.Cost,
			float64(r.Place.Microseconds())/1000, 100*r.RelErr, r.Rates.ME, r.Rates.WAE, r.Rates.TE)
	}
	return b.String()
}
