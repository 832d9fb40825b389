// Package detect defines voltage emergencies and scores detection schemes
// with the paper's three error rates:
//
//   - Miss error (ME): emergencies in the function area that the scheme does
//     not flag, as a fraction of emergency samples.
//   - Wrong alarm error (WAE): alarms raised when no emergency exists, as a
//     fraction of emergency-free samples.
//   - Total error (TE): samples whose reported state is wrong, over all
//     samples.
//
// An emergency in a sample (one full-chip voltage map) is any monitored
// critical node below the threshold voltage (0.85 V in the paper, with
// VDD = 1.0 V).
package detect

import (
	"fmt"

	"voltsense/internal/mat"
)

// DefaultVth is the paper's emergency threshold at VDD = 1.0 V.
const DefaultVth = 0.85

// Rates aggregates the three error rates plus the raw counts behind them.
type Rates struct {
	ME, WAE, TE float64
	Samples     int // total samples scored
	Emergencies int // samples with a true emergency
	Misses      int // emergencies not flagged
	WrongAlarms int // alarms without an emergency
}

// String formats the rates the way the paper's Table 2 prints them.
func (r Rates) String() string {
	return fmt.Sprintf("ME=%.4f WAE=%.4f TE=%.4f", r.ME, r.WAE, r.TE)
}

// TruthFromVoltages reports, per sample (column), whether any monitored node
// of truth (K-by-N voltages) is below vth.
func TruthFromVoltages(truth *mat.Matrix, vth float64) []bool {
	n := truth.Cols()
	out := make([]bool, n)
	for i := 0; i < truth.Rows(); i++ {
		row := truth.Row(i)
		for j, v := range row {
			if v < vth {
				out[j] = true
			}
		}
	}
	return out
}

// AlarmsFromPredictions flags sample j when any predicted critical-node
// voltage falls below vth — the proposed scheme's alarm rule.
func AlarmsFromPredictions(pred *mat.Matrix, vth float64) []bool {
	return TruthFromVoltages(pred, vth)
}

// Score compares per-sample alarms against per-sample truth.
//
// ME is conditioned on emergency samples and WAE on emergency-free samples
// (both 0 when their condition never occurs); TE is unconditional.
func Score(truth, alarms []bool) Rates {
	if len(truth) != len(alarms) {
		panic(fmt.Sprintf("detect: %d truth samples vs %d alarms", len(truth), len(alarms)))
	}
	var r Rates
	r.Samples = len(truth)
	for j, e := range truth {
		if e {
			r.Emergencies++
			if !alarms[j] {
				r.Misses++
			}
		} else if alarms[j] {
			r.WrongAlarms++
		}
	}
	if r.Emergencies > 0 {
		r.ME = float64(r.Misses) / float64(r.Emergencies)
	}
	if ok := r.Samples - r.Emergencies; ok > 0 {
		r.WAE = float64(r.WrongAlarms) / float64(ok)
	}
	if r.Samples > 0 {
		r.TE = float64(r.Misses+r.WrongAlarms) / float64(r.Samples)
	}
	return r
}

// ScorePerBlock scores detection at (sample, block) granularity: block k of
// sample j is in emergency when truth[k][j] < vth, and flagged when
// pred[k][j] < vth. This finer accounting is an extension beyond the
// paper's chip-level rates.
func ScorePerBlock(truth, pred *mat.Matrix, vth float64) Rates {
	if truth.Rows() != pred.Rows() || truth.Cols() != pred.Cols() {
		panic(fmt.Sprintf("detect: shape mismatch %dx%d vs %dx%d",
			truth.Rows(), truth.Cols(), pred.Rows(), pred.Cols()))
	}
	var r Rates
	for i := 0; i < truth.Rows(); i++ {
		tr, pr := truth.Row(i), pred.Row(i)
		for j := range tr {
			r.Samples++
			e := tr[j] < vth
			a := pr[j] < vth
			if e {
				r.Emergencies++
				if !a {
					r.Misses++
				}
			} else if a {
				r.WrongAlarms++
			}
		}
	}
	if r.Emergencies > 0 {
		r.ME = float64(r.Misses) / float64(r.Emergencies)
	}
	if ok := r.Samples - r.Emergencies; ok > 0 {
		r.WAE = float64(r.WrongAlarms) / float64(ok)
	}
	if r.Samples > 0 {
		r.TE = float64(r.Misses+r.WrongAlarms) / float64(r.Samples)
	}
	return r
}
