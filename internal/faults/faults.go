// Package faults is the degradation tier the paper leaves implicit: Eq. 20
// assumes all Q placed sensors report forever, but on silicon sensors go
// stuck-at, drift out of calibration, or drop out entirely, and a runtime
// that keeps evaluating the full-Q model on garbage readings serves garbage
// voltage maps. This package provides the three pieces a fault-tolerant
// runtime needs:
//
//   - an injection model (Fault, Injector, ParseSpec) that corrupts reading
//     streams deterministically, for tests and for chaos drills via the
//     voltserved --fault-spec flag;
//   - a Detector that classifies each sensor from per-sensor rolling
//     statistics — dropout (non-finite readings), flatline/stuck-at (window
//     variance collapses against the training variance), and drift (the
//     rolling mean walks away from the training mean);
//   - a Guard that, on detection, atomically routes predictions to a
//     pre-fitted leave-k-out fallback model (core.FallbackSet) and reports
//     degraded state when no fallback covers the failed set.
//
// The fallback models themselves are ordinary Eq. 17 OLS refits on the
// surviving sensor subset, fitted at placement time (see
// core.FitFallbacks); this package only detects and routes.
package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Kind classifies a sensor fault, both for injection and as the detector's
// diagnosis.
type Kind int

// Fault kinds.
const (
	// None marks a healthy sensor in detector reports.
	None Kind = iota
	// Stuck freezes the sensor at a constant value (injection) or marks a
	// flatlined window (detection).
	Stuck
	// Dropout makes the sensor report non-finite values (NaN), the way a
	// dead ADC or a severed scan chain presents.
	Dropout
	// Drift adds a linear ramp to the reading, modeling a sensor walking
	// out of calibration.
	Drift
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Stuck:
		return "stuck"
	case Dropout:
		return "dropout"
	case Drift:
		return "drift"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// parseKind inverts String for spec parsing.
func parseKind(s string) (Kind, error) {
	switch s {
	case "stuck":
		return Stuck, nil
	case "dropout":
		return Dropout, nil
	case "drift":
		return Drift, nil
	default:
		return None, fmt.Errorf("faults: unknown fault kind %q (want stuck, dropout, or drift)", s)
	}
}

// Fault is one injected sensor fault. Sensor indexes the reading vector
// (position 0..Q-1 in the served model's sensor order), not the global
// candidate index.
type Fault struct {
	Sensor int     // position in the reading vector
	Kind   Kind    // stuck | dropout | drift
	Start  int     // first cycle the fault is active
	Value  float64 // Stuck: the frozen reading; ignored otherwise
	Rate   float64 // Drift: volts added per cycle since Start; ignored otherwise
}

// faultJSON is the --fault-spec wire form of one fault.
type faultJSON struct {
	Sensor int     `json:"sensor"`
	Kind   string  `json:"kind"`
	Start  int     `json:"start"`
	Value  float64 `json:"value,omitempty"`
	Rate   float64 `json:"rate,omitempty"`
}

type specJSON struct {
	Faults []faultJSON `json:"faults"`
}

// ParseSpec decodes a fault-injection spec:
//
//	{"faults": [
//	  {"sensor": 2, "kind": "stuck",   "start": 100, "value": 0.93},
//	  {"sensor": 0, "kind": "dropout", "start": 250},
//	  {"sensor": 1, "kind": "drift",   "start": 50,  "rate": -0.0002}
//	]}
//
// Sensor positions are validated against the reading vector length by
// NewInjector, not here, because the spec can outlive a model reload.
func ParseSpec(data []byte) ([]Fault, error) {
	var spec specJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("faults: malformed fault spec: %w", err)
	}
	if len(spec.Faults) == 0 {
		return nil, fmt.Errorf("faults: spec has no faults")
	}
	out := make([]Fault, 0, len(spec.Faults))
	for i, fj := range spec.Faults {
		k, err := parseKind(fj.Kind)
		if err != nil {
			return nil, fmt.Errorf("faults: spec entry %d: %w", i, err)
		}
		if fj.Sensor < 0 {
			return nil, fmt.Errorf("faults: spec entry %d: negative sensor %d", i, fj.Sensor)
		}
		if fj.Start < 0 {
			return nil, fmt.Errorf("faults: spec entry %d: negative start cycle %d", i, fj.Start)
		}
		if k == Stuck && (math.IsNaN(fj.Value) || math.IsInf(fj.Value, 0)) {
			return nil, fmt.Errorf("faults: spec entry %d: non-finite stuck value", i)
		}
		out = append(out, Fault{Sensor: fj.Sensor, Kind: k, Start: fj.Start, Value: fj.Value, Rate: fj.Rate})
	}
	return out, nil
}

// Injector corrupts reading vectors according to a fault list. Apply is a
// pure function of (cycle, readings), so one Injector may be shared by
// concurrent sessions without locking.
type Injector struct {
	faults []Fault
}

// NewInjector validates the fault list against the reading vector length q.
func NewInjector(faults []Fault, q int) (*Injector, error) {
	for i, f := range faults {
		if f.Sensor < 0 || f.Sensor >= q {
			return nil, fmt.Errorf("faults: fault %d targets sensor %d, model has %d", i, f.Sensor, q)
		}
		if f.Kind == None {
			return nil, fmt.Errorf("faults: fault %d has no kind", i)
		}
	}
	fs := make([]Fault, len(faults))
	copy(fs, faults)
	return &Injector{faults: fs}, nil
}

// Apply overwrites the faulted sensors of readings in place for the given
// cycle. Faults whose Start is in the future leave the vector untouched.
func (in *Injector) Apply(cycle int, readings []float64) {
	for _, f := range in.faults {
		if cycle < f.Start || f.Sensor >= len(readings) {
			continue
		}
		switch f.Kind {
		case Stuck:
			readings[f.Sensor] = f.Value
		case Dropout:
			readings[f.Sensor] = math.NaN()
		case Drift:
			readings[f.Sensor] += f.Rate * float64(cycle-f.Start+1)
		}
	}
}

// sortedCopy returns a sorted copy of xs (helper shared with the guard).
func sortedCopy(xs []int) []int {
	out := make([]int, len(xs))
	copy(out, xs)
	sort.Ints(out)
	return out
}
