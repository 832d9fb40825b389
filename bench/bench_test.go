package main

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"voltsense/internal/experiments"
	"voltsense/internal/grid"
	"voltsense/internal/lasso"
	"voltsense/internal/pdn"
)

// tinyScale runs every workload's code in well under a second of compute:
// a coarse mesh, short runs, low offered load.
func tinyScale() scale {
	cfg := experiments.QuickConfig()
	cfg.Grid.NX, cfg.Grid.NY = 30, 14
	cfg.Warmup = 10
	cfg.TrainSteps = 60
	cfg.TrainMaps = 19 * 30
	cfg.TestSteps = 20
	cfg.TestStride = 2
	cfg.CalibSteps = 20
	cfg.GLSampleCap = 200
	cfg.Solver = lasso.Options{MaxIter: 200, Tol: 1e-4}
	cfg.Lambdas = []float64{2, 4}

	sc := paperScale()
	sc.campaign = cfg
	sc.scanGrid = grid.DefaultConfig()
	sc.scanGrid.NX, sc.scanGrid.NY = 40, 18
	sc.scanSteps = 2
	sc.scanBackend = pdn.Sparse // the paper-scale mesh is wide enough to pick it
	sc.serve = cfg
	sc.serveReps = 1
	sc.tenants = 4
	sc.rate = 400
	sc.resolution = 0.5
	sc.cycles = 8
	sc.calSamples = 8
	return sc
}

// TestWorkloadsMeetContract runs every BENCHMARK.json workload untraced and
// traced at the tiny scale and checks that each run passes its gate and
// reports exactly the contract's metrics, with their units.
func TestWorkloadsMeetContract(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			rc := runConfig{seed: 3, seconds: 1, trace: traced, work: t.TempDir(), sc: tinyScale(), ref: &reference{}, probe: &probe{}}
			run, ok := workloads[wl.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json names workload %q the harness does not have", wl.Name)
			}
			start := time.Now()
			out, err := run(rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			_, res := complete(wl.Name, rc, out)
			t.Logf("%s trace=%v: %d attempted in %v", wl.Name, traced, res.Attempted, time.Since(start).Round(time.Millisecond))
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d problems=%v", wl.Name, traced, res.Correct, res.Failed, out.problems)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl.Name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", wl.Name, traced, name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.Name, name, m.Value)
				}
			}
		}
	}
}

// TestSpecMatchesHarness keeps BENCHMARK.json and the harness's metric
// lists in step.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: spec %s [%s], harness %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	pl := perLayer()
	if len(spec.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(spec.PerLayer), len(pl))
	}
	for i, m := range spec.PerLayer {
		if m.Name != pl[i].name || m.Unit != pl[i].unit {
			t.Errorf("per-layer %d: spec %s [%s], harness %s [%s]", i, m.Name, m.Unit, pl[i].name, pl[i].unit)
		}
	}
}

// TestProbeScaling checks that a run on a machine at half the nominal speed
// reports half its measured times and twice its measured rates, and keeps
// the measured figures in the header.
func TestProbeScaling(t *testing.T) {
	p := &probe{times: []float64{2 * probeNominal.Seconds()}}
	out := &outcome{attempted: 1, e2e: metrics{}, detail: metrics{}}
	out.e2e.set("setup_s", "s", 3)
	out.e2e.set("op_p50_ms", "ms", 10)
	out.e2e.set("rate_per_s", "1/s", 4)
	h, res := complete("campaign", runConfig{probe: p}, out)
	for name, want := range map[string]float64{"setup_s": 1.5, "op_p50_ms": 5, "rate_per_s": 8} {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := h.Detail["measured_op_p50_ms"].Value; got != 10 {
		t.Errorf("header measured_op_p50_ms = %v, want 10", got)
	}
}

// TestReferenceDecodes checks the stored reference covers seeds 1 and 2.
func TestReferenceDecodes(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Campaign.CritNodes) == 0 {
		t.Error("reference has no campaign critical nodes")
	}
	for _, s := range []string{"1", "2"} {
		if c := ref.Campaign.Seeds[s]; c == nil || len(c.Table1) == 0 || len(c.Table2) == 0 {
			t.Errorf("reference lacks the campaign at seed %s", s)
		}
		if r := ref.Scan[s]; r == nil || len(r.CritNodes) == 0 || len(r.CritNodes) != len(r.WorstV) {
			t.Errorf("reference lacks the scan at seed %s", s)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
	} {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestWindowedFigures pins the serving workloads' window medians: one slow
// window out of three cannot move them, and too few values fall back to the
// whole phase.
func TestWindowedFigures(t *testing.T) {
	lat := []float64{1, 2, 3, 4, 50, 60, 70, 80, 5, 6, 7, 8}
	if got := windowed(lat, 4, 0.5); got != 6 {
		t.Errorf("windowed p50 = %v, want 6 (window p50s 2, 60, 6)", got)
	}
	if got := windowed(lat[:6], 4, 0.5); got != 3 {
		t.Errorf("windowed p50 of fewer than two windows = %v, want the plain p50 3", got)
	}
	done := []float64{0.1, 0.2, 0.3, 1.1, 1.2, 1.3, 2.5, 3.2}
	if got := median(windowRates(done, 3.5, 1)); got != 3 {
		t.Errorf("median window rate = %v, want 3 (window counts 3, 3, 1)", got)
	}
	if got := windowRates(done, 1.5, 1); len(got) != 1 || got[0] != float64(len(done))/1.5 {
		t.Errorf("window rates over one window = %v, want the plain rate", got)
	}
}

// TestAgree checks -agree passes two matching sets, fails a set whose
// median moved past a bound, and fails a set missing a workload.
func TestAgree(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, scale float64, workloads int) string {
		var b strings.Builder
		for _, wl := range spec.Workloads[:workloads] {
			for _, v := range []float64{1, 1.01, 0.99, 1.02, 0.98} {
				b.WriteString(`{"run":{"workload":"` + wl.Name + `","trace":0}}` + "\n")
				b.WriteString(`{"correct":true,"attempted":1,"failed":0,"metrics":{`)
				for j, m := range spec.EndToEnd {
					if j > 0 {
						b.WriteString(",")
					}
					val := strconv.FormatFloat(v*scale, 'g', -1, 64)
					b.WriteString(`"` + m.Name + `":{"value":` + val + `,"unit":"` + m.Unit + `"}`)
				}
				b.WriteString("}}\n")
			}
		}
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	n := len(spec.Workloads)
	base := write("a.json", 1, n)
	var sink strings.Builder
	if code := runAgree([]string{base, write("same.json", 1.01, n)}, &sink); code != 0 {
		t.Errorf("matching sets: exit %d\n%s", code, sink.String())
	}
	if code := runAgree([]string{base, write("moved.json", 1.5, n)}, &sink); code == 0 {
		t.Error("sets 50% apart agreed")
	}
	if code := runAgree([]string{base, write("short.json", 1, n-1)}, &sink); code == 0 {
		t.Error("a set missing a workload agreed")
	}
}
