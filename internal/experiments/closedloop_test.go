package experiments

import "testing"

func TestClosedLoopThrottlingReducesEmergencies(t *testing.T) {
	p := quick(t)
	bench := p.BusiestBenchmark()
	d, err := p.ClosedLoop(bench, 2, 400)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: open %d vs closed %d emergency steps (%d alarms, %d throttled core-steps)",
		d.Bench, d.OpenEmergencySteps, d.ClosedEmergencySteps, d.Alarms, d.ThrottleSteps)
	if d.OpenEmergencySteps == 0 {
		t.Skip("no emergencies in the open-loop window")
	}
	if d.Alarms == 0 {
		t.Fatal("monitor never alarmed despite open-loop emergencies")
	}
	// Throttling must substantially reduce emergency exposure.
	if d.ClosedEmergencySteps*2 > d.OpenEmergencySteps {
		t.Errorf("closed loop removed under half the emergencies: %d -> %d",
			d.OpenEmergencySteps, d.ClosedEmergencySteps)
	}
	// The throttle must actually release: a loop that pins every core at
	// the floor for the whole run is a thermostat stuck on.
	if total := d.Steps * len(p.Chip.Cores); d.ThrottleSteps >= total*95/100 {
		t.Errorf("throttled %d of %d core-steps; the throttle never releases",
			d.ThrottleSteps, total)
	}
}

func TestClosedLoopBadBench(t *testing.T) {
	p := quick(t)
	if _, err := p.ClosedLoop(99, 2, 50); err == nil {
		t.Fatal("expected error")
	}
}

// TestClosedLoopRunsHeldOutCurrents: with ThermalFeedback on, the closed
// loop's open run, and a controlled run whose control never throttles,
// each count the emergencies the pipeline's own held-out run shows over
// the same benchmark and step count, for every benchmark. The loop
// throttles the chip the model was trained and scored on, thermal leakage
// scale included.
func TestClosedLoopRunsHeldOutCurrents(t *testing.T) {
	cfg := tinyConfig()
	cfg.Grid.NX, cfg.Grid.NY = 52, 23 // every core holds candidates
	cfg.ThermalFeedback = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := cfg.TestSteps * cfg.TestStride
	total := cfg.Warmup + steps
	emergencies := 0
	for bi, bench := range p.Bench {
		want := 0
		err := p.runBenchmarks(runTest, steps, []int{bi}, func(_, _ int, v []float64) {
			for _, nd := range p.CritNodes {
				if v[nd] < cfg.Vth {
					want++
					break
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		emergencies += want
		res, err := p.ClosedLoop(bi, 2, steps)
		if err != nil {
			t.Fatal(err)
		}
		if res.OpenEmergencySteps != want {
			t.Fatalf("%s: open loop counts %d emergency steps, the held-out run %d", bench.Name, res.OpenEmergencySteps, want)
		}
		ct, err := p.benchCurrents(bench, total, runTest)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.countEmergencies(ct.Currents, total, func(int, []float64, []float64) {})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: unthrottled controlled run counts %d emergency steps, the held-out run %d", bench.Name, got, want)
		}
	}
	if emergencies == 0 {
		t.Fatal("no held-out run has an emergency; the comparison shows nothing")
	}
}
