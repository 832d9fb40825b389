package experiments

import (
	"fmt"

	"voltsense/internal/monitor"
	"voltsense/internal/pdn"
)

// ClosedLoopResult is the capstone experiment: the placed sensors and
// prediction model drive a throttle, and throttling measurably reduces
// voltage emergencies — the end the paper's introduction motivates
// ("identify impending emergencies and prevent their occurrence by
// throttling mechanisms").
type ClosedLoopResult struct {
	Bench          string
	SensorsPerCore int
	Steps          int

	// Open loop: the benchmark runs unmanaged.
	OpenEmergencySteps int // steps with any critical node below Vth

	// Closed loop: alarms throttle the affected cores' current draw.
	ClosedEmergencySteps int
	ThrottleSteps        int // core-steps spent throttled (performance cost)
	Alarms               int
}

// throttleFactor is the current reduction a throttled core runs at (clock
// and issue throttling roughly halve switching activity).
const throttleFactor = 0.55

// throttleHold is how many steps a throttle stays asserted after the last
// alarm on its core.
const throttleHold = 6

// ClosedLoop simulates benchIdx's held-out run twice: once unmanaged and
// once with the q-sensors-per-core monitor throttling the cores whose
// blocks alarm. Both start from the currents the pipeline's own held-out
// run draws (thermal leakage scale included). Because throttling changes
// the currents, this runs its own step-by-step simulation rather than
// reusing recorded samples.
func (p *Pipeline) ClosedLoop(benchIdx, q, steps int) (*ClosedLoopResult, error) {
	if benchIdx < 0 || benchIdx >= len(p.Bench) {
		return nil, fmt.Errorf("experiments: benchmark index %d out of range", benchIdx)
	}
	_, union, err := p.ChipPlacementCount(q)
	if err != nil {
		return nil, err
	}
	pred, err := p.BuildChipPredictor(union)
	if err != nil {
		return nil, err
	}

	bench := p.Bench[benchIdx]
	total := p.Cfg.Warmup + steps
	ct, err := p.benchCurrents(bench, total, runTest)
	if err != nil {
		return nil, err
	}

	res := &ClosedLoopResult{Bench: bench.Name, SensorsPerCore: q, Steps: steps}

	// Open loop.
	open, err := p.countEmergencies(ct.Currents, total, nil)
	if err != nil {
		return nil, err
	}
	res.OpenEmergencySteps = open

	// Closed loop: a monitor drives per-core throttle timers.
	mon, err := monitor.New(pred, p.Chip.NumBlocks(), monitor.Config{Vth: p.Cfg.Vth}, nil)
	if err != nil {
		return nil, err
	}
	throttleLeft := make([]int, len(p.Chip.Cores))
	sensorV := make([]float64, len(union))
	closed, err := p.countEmergencies(ct.Currents, total, func(t int, v []float64, cur []float64) {
		// Read the placed sensors from the *previous* step's voltages (one
		// sampling cycle of latency), predict, and throttle alarmed cores.
		for i, s := range union {
			sensorV[i] = v[p.Grid.Candidates[s]]
		}
		for _, e := range mon.Process(t, sensorV) {
			if e.Kind == monitor.AlarmRaised {
				res.Alarms++
				throttleLeft[p.Chip.Blocks[e.Block].Core] = throttleHold
			}
		}
		for c, left := range throttleLeft {
			if left <= 0 {
				continue
			}
			throttleLeft[c]--
			if t >= p.Cfg.Warmup {
				res.ThrottleSteps++
			}
			for _, b := range p.Chip.Cores[c].Blocks {
				cur[b.ID] *= throttleFactor
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res.ClosedEmergencySteps = closed
	return res, nil
}

// countEmergencies integrates the grid under the given block currents and
// counts post-warmup steps with any critical node below Vth. control, when
// non-nil, may mutate the current vector each step (throttling) based on
// the previous step's voltages.
func (p *Pipeline) countEmergencies(currents [][]float64, total int, control func(t int, prevV []float64, cur []float64)) (int, error) {
	sim, err := pdn.NewSimulatorBackend(p.Grid, p.Cfg.DT, p.Cfg.Backend)
	if err != nil {
		return 0, err
	}
	loader := pdn.NewBlockLoader(p.Grid)
	cur := make([]float64, p.Chip.NumBlocks())
	prevV := make([]float64, p.Grid.NumNodes())
	for i := range prevV {
		prevV[i] = p.Grid.Cfg.VDD
	}
	// Settle on the first step's unthrottled currents.
	for b := range cur {
		cur[b] = currents[b][0]
	}
	if err := sim.Settle(loader.Loads(cur)); err != nil {
		return 0, err
	}
	emergencies := 0
	for t := 0; t < total; t++ {
		for b := range cur {
			cur[b] = currents[b][t]
		}
		if control != nil {
			control(t, prevV, cur)
		}
		v := sim.Step(loader.Loads(cur))
		if t >= p.Cfg.Warmup {
			for _, nd := range p.CritNodes {
				if v[nd] < p.Cfg.Vth {
					emergencies++
					break
				}
			}
		}
		copy(prevV, v)
	}
	return emergencies, nil
}
