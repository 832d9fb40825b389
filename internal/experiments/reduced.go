package experiments

import (
	"fmt"
	"strings"
	"time"

	"voltsense/internal/basis"
	"voltsense/internal/core"
	"voltsense/internal/detect"
)

// This file hosts the chip-joint placement experiments: instead of the
// paper's per-core decomposition (8 independent K≈8 solves), one group
// lasso places sensors against every critical node on the chip at once
// (K = NumBlocks targets). That is the regime where the reduced-basis
// pipeline pays off — the POD compression of the targets drops the
// per-iteration cost from O(K·M²) to O(r·M²), and chip-wide voltage maps
// are so correlated that r ≪ K at 99% energy.

// chipTrainDataset is the chip-joint analogue of glTrainDataset: all
// candidate rows as features, all critical-node rows as targets, capped to
// GLSampleCap samples. Selected indices from a placement on this dataset
// are global candidate indices, directly usable by BuildChipPredictor.
func (p *Pipeline) chipTrainDataset() *core.Dataset {
	return p.capSamples(&core.Dataset{X: p.Train.CandV, F: p.Train.CritV})
}

// PlaceChipDense solves the chip-joint group lasso against all K critical
// nodes — the dense baseline the reduced solve is benchmarked against.
func (p *Pipeline) PlaceChipDense(lambda float64) (*core.Placement, error) {
	return core.PlaceSensors(p.chipTrainDataset(), core.Config{
		Lambda:    lambda,
		Threshold: p.threshold(),
		Solver:    p.Cfg.Solver,
	})
}

// PlaceChipReduced solves the same chip-joint placement in the rank-r POD
// coefficient space of the standardized targets. bc picks the rank (exact
// Rank, or the minimal rank reaching an Energy fraction).
func (p *Pipeline) PlaceChipReduced(lambda float64, bc basis.Config) (*core.ReducedPlacement, error) {
	return core.PlaceSensorsReduced(p.chipTrainDataset(), core.Config{
		Lambda:    lambda,
		Threshold: p.threshold(),
		Solver:    p.Cfg.Solver,
	}, bc)
}

// RankStudyRow is one point of the rank/accuracy trade-off: a placement at
// one basis configuration, refit dense (full-K OLS) and scored on the
// held-out maps. The basis only shrinks the selection solve, so the
// accuracy columns measure what truncation risks: the selection.
type RankStudyRow struct {
	Label   string        // "dense" for the baseline, "energy=…" for reduced rows
	Rank    int           // basis rank used for the solve (K for dense)
	Energy  float64       // energy fraction the basis captures (1 for dense)
	Sensors int           // sensors selected
	Solve   time.Duration // wall-clock of the placement solve
	RelErr  float64       // relative prediction error on the held-out maps
	TE      detect.Rates  // chip-level detection rates on the held-out maps
}

// RankStudyData is the dense baseline plus one row per requested energy
// level, all at the same λ.
type RankStudyData struct {
	Lambda  float64
	Targets int // K, the number of critical nodes
	Rows    []RankStudyRow
}

// RankStudy measures the reduced-basis trade-off end to end: the chip-joint
// placement is solved dense and then at each requested energy level, and
// each selection is refit dense and scored on the held-out maps. The Solve
// timings make the speedup visible; RelErr and TE make its cost visible.
func (p *Pipeline) RankStudy(lambda float64, energies []float64) (*RankStudyData, error) {
	test := p.TestAll()
	truth := detect.TruthFromVoltages(test.CritV, p.Cfg.Vth)
	full := &core.Dataset{X: p.Train.CandV, F: p.Train.CritV}
	d := &RankStudyData{Lambda: lambda, Targets: p.Train.CritV.Rows()}
	addRow := func(row RankStudyRow, selected []int) error {
		pred, err := core.BuildPredictor(full, selected)
		if err != nil {
			return err
		}
		row.Sensors = len(selected)
		row.RelErr = p.RelErrorOn(pred, test)
		row.TE = detect.Score(truth, detect.AlarmsFromPredictions(p.PredictTest(pred, test), p.Cfg.Vth))
		d.Rows = append(d.Rows, row)
		return nil
	}

	start := time.Now()
	dense, err := p.PlaceChipDense(lambda)
	solve := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("experiments: dense chip placement: %w", err)
	}
	if len(dense.Selected) == 0 {
		return nil, fmt.Errorf("experiments: dense chip placement selected no sensors at λ=%g", lambda)
	}
	if err := addRow(RankStudyRow{Label: "dense", Rank: d.Targets, Energy: 1, Solve: solve}, dense.Selected); err != nil {
		return nil, err
	}

	for _, e := range energies {
		start = time.Now()
		rp, err := p.PlaceChipReduced(lambda, basis.Config{Energy: e})
		solve = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("experiments: reduced chip placement (energy %g): %w", e, err)
		}
		if len(rp.Selected) == 0 {
			return nil, fmt.Errorf("experiments: reduced placement (energy %g) selected no sensors at λ=%g", e, lambda)
		}
		row := RankStudyRow{
			Label:  fmt.Sprintf("energy=%g", e),
			Rank:   rp.Basis.Rank(),
			Energy: rp.Basis.EnergyCaptured(),
			Solve:  solve,
		}
		if err := addRow(row, rp.Selected); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Render formats the rank study as a fixed-width table.
func (d *RankStudyData) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chip-joint placement at λ=%g over %d critical nodes\n", d.Lambda, d.Targets)
	fmt.Fprintf(&b, "%-14s %6s %9s %8s %12s %11s %8s\n",
		"basis", "rank", "energy", "sensors", "solve", "rel err(%)", "TE")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%-14s %6d %9.5f %8d %12s %11.3f %8.4f\n",
			r.Label, r.Rank, r.Energy, r.Sensors, r.Solve.Round(time.Millisecond),
			100*r.RelErr, r.TE.TE)
	}
	return b.String()
}

// CSV emits the rank study as comma-separated rows.
func (d *RankStudyData) CSV() string {
	var b strings.Builder
	b.WriteString("basis,rank,energy,sensors,solve_ms,rel_err_pct,me,wae,te\n")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%s,%d,%.6f,%d,%.1f,%.4f,%.4f,%.4f,%.4f\n",
			r.Label, r.Rank, r.Energy, r.Sensors,
			float64(r.Solve.Microseconds())/1000, 100*r.RelErr, r.TE.ME, r.TE.WAE, r.TE.TE)
	}
	return b.String()
}
