package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"voltsense/internal/core"
	"voltsense/internal/mat"
	"voltsense/internal/online"
	"voltsense/internal/transfer"
)

// testPrior pins a golden-chip prior with exactly testPredictor's
// coefficients as its mean (2 sensors, 3 blocks), so prior-only enrollment
// serves the same numbers as the legacy fixture.
func testPrior() *transfer.SharedPrior {
	mean := mat.Zeros(3, 3) // rows: alpha0, alpha1, intercept per block
	mean.Set(0, 0, 1)
	mean.Set(1, 1, 1)
	mean.Set(2, 0, 0.5)
	mean.Set(2, 1, 0.5)
	return &transfer.SharedPrior{
		Selected: []int{3, 7},
		Mean:     mean,
		Prec:     []float64{10, 10, 10},
		NoiseVar: 1e-4,
		Goldens:  2,
	}
}

// trueChip is the fielded chip's actual response, deliberately off the
// golden prior: per-chip process variation the calibration must recover.
func trueChip(r0, r1 float64) []float64 {
	return []float64{0.9*r0 + 0.05, 1.1*r1 - 0.02, 0.55*r0 + 0.45*r1 + 0.01}
}

// calibBody builds a /v1/calibrate request with n labeled samples drawn
// from trueChip at pseudo-random operating points.
func calibBody(t testing.TB, tenant string, rng *rand.Rand, n int) string {
	t.Helper()
	req := calibrateRequest{Tenant: tenant}
	for i := 0; i < n; i++ {
		r0 := 0.85 + 0.15*rng.Float64()
		r1 := 0.85 + 0.15*rng.Float64()
		req.Samples = append(req.Samples, feedbackSample{
			Readings: []reading{reading(r0), reading(r1)},
			Voltages: trueChip(r0, r1),
		})
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestCalibrateDisabledWithoutPrior(t *testing.T) {
	// Fleet mode without a pinned prior: calibration is off.
	_, ts, _ := newFleetServer(t, Config{}, map[string]string{"default": legacyArtifact})
	code, b := postJSON(t, ts.URL+"/v1/calibrate", `{"tenant":"chipA","samples":[]}`)
	if code != 404 || !strings.Contains(string(b), "-prior") {
		t.Fatalf("calibrate without prior: code %d body %s", code, b)
	}

	// Single-tenant mode can never calibrate (no store to persist into).
	_, ts2 := newTestServer(t)
	code, b = postJSON(t, ts2.URL+"/v1/calibrate", `{"samples":[]}`)
	if code != 404 || !strings.Contains(string(b), "-store") {
		t.Fatalf("calibrate in single-tenant mode: code %d body %s", code, b)
	}

	// Prior without a store is a config error, not a silent no-op.
	if _, err := New(Config{
		Loader: func() (*core.Predictor, error) { return testPredictor(), nil },
		Prior:  testPrior(),
	}); err == nil {
		t.Fatal("Config.Prior without StoreDir accepted")
	}
}

func TestCalibrateEnrollsNewTenantAndRecalibrates(t *testing.T) {
	s, ts, dir := newFleetServer(t, Config{Prior: testPrior()},
		map[string]string{"default": legacyArtifact})
	legacyBefore, err := os.ReadFile(filepath.Join(dir, "default.json"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))

	// A tenant with no artifact at all enrolls through calibration.
	code, b := postJSON(t, ts.URL+"/v1/calibrate", calibBody(t, "chipNew", rng, 16))
	var cr calibrateResponse
	json.Unmarshal(b, &cr)
	if code != 200 || cr.PriorOnly || cr.Accepted != 16 || cr.ModelVersion != 1 {
		t.Fatalf("enroll: code %d resp %+v body %s", code, cr, b)
	}
	if cr.DeltaCoefficients == 0 || cr.PriorFingerprint == "" {
		t.Fatalf("enroll produced empty delta or fingerprint: %+v", cr)
	}
	art, err := os.ReadFile(filepath.Join(dir, "chipNew.json"))
	if err != nil {
		t.Fatalf("calibration wrote no artifact: %v", err)
	}
	if !bytes.Contains(art, []byte(transfer.DeltaFormat)) {
		t.Fatalf("artifact is not a thin delta: %s", art)
	}

	// The aligned model serves immediately and tracks the fielded chip, not
	// the golden prior.
	code, pr, _ := predictAs(t, ts, "chipNew", `{"readings":[[1.0,1.0]]}`)
	if code != 200 || pr.Tenant != "chipNew" {
		t.Fatalf("predict on calibrated tenant: code %d resp %+v", code, pr)
	}
	want := trueChip(1.0, 1.0)
	for i, v := range pr.Voltages[0] {
		if math.Abs(v-want[i]) > 0.02 {
			t.Fatalf("block %d: aligned predicts %.4f, fielded chip is %.4f (prior mean 1.0)", i, v, want[i])
		}
	}

	// Recalibration chains the lineage: version parent+1, generation bumps.
	genBefore := cr.ModelGeneration
	code, b = postJSON(t, ts.URL+"/v1/calibrate", calibBody(t, "chipNew", rng, 32))
	json.Unmarshal(b, &cr)
	if code != 200 || cr.ModelVersion != 2 || cr.ModelGeneration <= genBefore {
		t.Fatalf("recalibrate: code %d resp %+v body %s", code, cr, b)
	}

	// The legacy tenant's artifact and serving behavior are untouched.
	legacyAfter, err := os.ReadFile(filepath.Join(dir, "default.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacyBefore, legacyAfter) {
		t.Fatal("calibrating chipNew rewrote the legacy default artifact")
	}
	code, pr, _ = predictAs(t, ts, "", `{"readings":[[0.9,0.7]]}`)
	if code != 200 || pr.Tenant != "default" || pr.Blocks != 3 {
		t.Fatalf("legacy tenant after calibrations: code %d resp %+v", code, pr)
	}

	if got := s.Metrics().TransferCalibrations.Value(); got != 2 {
		t.Fatalf("TransferCalibrations = %d, want 2", got)
	}
	if got := s.Metrics().TransferSamples.Value(); got != 48 {
		t.Fatalf("TransferSamples = %d, want 48", got)
	}
	if got := s.Metrics().TransferDeltaLoads.Value(); got < 2 {
		t.Fatalf("TransferDeltaLoads = %d, want >= 2", got)
	}
	var mb strings.Builder
	s.Metrics().WritePrometheus(&mb)
	if !strings.Contains(mb.String(), "voltserved_transfer_calibrations_total 2") {
		t.Fatal("metrics exposition missing voltserved_transfer_calibrations_total")
	}
}

func TestCalibrateEvidenceGateEnrollsAtPriorMean(t *testing.T) {
	_, ts, _ := newFleetServer(t, Config{Prior: testPrior()}, nil)
	rng := rand.New(rand.NewSource(7))

	// Two samples sit below the default gate of four: the tenant enrolls at
	// the pure prior mean and the response says so.
	code, b := postJSON(t, ts.URL+"/v1/calibrate", calibBody(t, "sparse", rng, 2))
	var cr calibrateResponse
	json.Unmarshal(b, &cr)
	if code != 200 || !cr.PriorOnly || cr.Note == "" {
		t.Fatalf("gated calibrate: code %d resp %+v body %s", code, cr, b)
	}
	code, pr, _ := predictAs(t, ts, "sparse", `{"readings":[[1.0,1.0]]}`)
	if code != 200 {
		t.Fatalf("predict on gated tenant: code %d", code)
	}
	for i, v := range pr.Voltages[0] {
		if math.Abs(v-1.0) > 1e-9 { // prior mean at [1,1] is exactly 1.0 per block
			t.Fatalf("block %d: gated tenant predicts %.6f, want exact prior mean 1.0", i, v)
		}
	}

	// Zero samples is legal zero-shot enrollment.
	code, b = postJSON(t, ts.URL+"/v1/calibrate", `{"tenant":"zeroshot","samples":[]}`)
	json.Unmarshal(b, &cr)
	if code != 200 || !cr.PriorOnly || cr.Accepted != 0 {
		t.Fatalf("zero-shot enroll: code %d resp %+v body %s", code, cr, b)
	}

	// Shape violations reject the whole batch.
	code, b = postJSON(t, ts.URL+"/v1/calibrate",
		`{"tenant":"bad","samples":[{"readings":[1.0],"voltages":[1,1,1]}]}`)
	if code != 400 {
		t.Fatalf("short readings accepted: code %d body %s", code, b)
	}
	code, _ = postJSON(t, ts.URL+"/v1/calibrate",
		`{"tenant":"bad","samples":[{"readings":[1.0,1.0],"voltages":[1,1]}]}`)
	if code != 400 {
		t.Fatal("short voltages accepted")
	}
	code, _ = postJSON(t, ts.URL+"/v1/calibrate",
		`{"tenant":"bad","samples":[{"readings":[null,1.0],"voltages":[1,1,1]}]}`)
	if code != 400 {
		t.Fatal("null reading accepted into calibration")
	}
	code, _ = postJSON(t, ts.URL+"/v1/calibrate", `{"tenant":"../evil","samples":[]}`)
	if code != 400 {
		t.Fatal("invalid tenant id accepted")
	}
}

// TestFleetMixedStoreLegacyAndDeltaUnderTraffic is the acceptance check for
// the thin-artifact path: a store holding both legacy full predictors and
// delta artifacts serves both tenant kinds under concurrent traffic, with
// recalibrations landing mid-flight, and the legacy artifact stays
// byte-identical on disk.
func TestFleetMixedStoreLegacyAndDeltaUnderTraffic(t *testing.T) {
	prior := testPrior()

	// Pre-write a delta artifact the way an earlier calibration would have.
	rng := rand.New(rand.NewSource(3))
	n := 12
	x := mat.Zeros(2, n)
	f := mat.Zeros(3, n)
	for i := 0; i < n; i++ {
		r0 := 0.85 + 0.15*rng.Float64()
		r1 := 0.85 + 0.15*rng.Float64()
		x.Set(0, i, r0)
		x.Set(1, i, r1)
		for j, v := range trueChip(r0, r1) {
			f.Set(j, i, v)
		}
	}
	al, err := transfer.AlignChip(prior, x, f, transfer.AlignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := transfer.SaveDelta(&buf, al.Delta, al.Predictor.Lineage); err != nil {
		t.Fatal(err)
	}

	s, ts, dir := newFleetServer(t, Config{Prior: prior}, map[string]string{
		"legacy": legacyArtifact,
		"thin":   buf.String(),
	})
	legacyBefore, err := os.ReadFile(filepath.Join(dir, "legacy.json"))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for _, tenant := range []string{"legacy", "thin"} {
					code, _, body := predictAs(t, ts, tenant, `{"readings":[[0.95,0.95]]}`)
					if code != 200 {
						errc <- fmt.Errorf("%s predict: code %d body %s", tenant, code, body)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		crng := rand.New(rand.NewSource(99))
		for i := 0; i < 5; i++ {
			code, b := postJSON(t, ts.URL+"/v1/calibrate", calibBody(t, "thin", crng, 8))
			if code != 200 {
				errc <- fmt.Errorf("mid-traffic calibrate: code %d body %s", code, b)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	legacyAfter, err := os.ReadFile(filepath.Join(dir, "legacy.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacyBefore, legacyAfter) {
		t.Fatal("traffic + recalibration modified the legacy artifact")
	}
	if got := s.Metrics().TransferDeltaLoads.Value(); got < 1 {
		t.Fatalf("TransferDeltaLoads = %d, want >= 1", got)
	}

	// A server over the same store without the prior must refuse the thin
	// tenant with an actionable error, not serve garbage.
	s2, err := New(Config{StoreDir: dir, Monitor: s.cfg.Monitor})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Registry().Get("thin"); err == nil || !strings.Contains(err.Error(), "-prior") {
		t.Fatalf("delta artifact loaded without a prior: %v", err)
	}
}

// TestConcurrentCalibrateAndFeedbackSameTenant hammers one tenant with
// interleaved /v1/calibrate refits (which replace the tenant runtime through
// the registry) and /v1/feedback ingests (which adapt whatever runtime they
// resolved) under -race. Every request must complete coherently; promotions
// from adapters orphaned by a concurrent refresh are refused, not raced.
func TestConcurrentCalibrateAndFeedbackSameTenant(t *testing.T) {
	s, ts, _ := newFleetServer(t, Config{
		Prior: testPrior(),
		Adapt: true,
		Adaptation: online.Config{
			Forgetting: 0.999,
			MinSamples: 64,
		},
	}, nil)
	rng := rand.New(rand.NewSource(5))

	// Enroll the tenant first so feedback has a runtime to land on.
	code, b := postJSON(t, ts.URL+"/v1/calibrate", calibBody(t, "chip", rng, 8))
	if code != 200 {
		t.Fatalf("initial calibrate: code %d body %s", code, b)
	}

	const calibrators, feeders, iters = 2, 4, 15
	var wg sync.WaitGroup
	errc := make(chan error, calibrators+feeders)
	for w := 0; w < calibrators; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				code, b := postJSON(t, ts.URL+"/v1/calibrate", calibBody(t, "chip", crng, 8))
				if code != 200 {
					errc <- fmt.Errorf("calibrate: code %d body %s", code, b)
					return
				}
			}
		}(int64(100 + w))
	}
	for w := 0; w < feeders; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			frng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				body := calibBody(t, "chip", frng, 4) // same JSON shape as feedback
				code, b := postJSON(t, ts.URL+"/v1/feedback", body)
				if code != 200 {
					errc <- fmt.Errorf("feedback: code %d body %s", code, b)
					return
				}
			}
		}(int64(200 + w))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The tenant is still coherent: it serves, and every calibration was
	// counted exactly once.
	code, pr, _ := predictAs(t, ts, "chip", `{"readings":[[1.0,1.0]]}`)
	if code != 200 || len(pr.Voltages) != 1 {
		t.Fatalf("post-race predict: code %d resp %+v", code, pr)
	}
	if got := s.Metrics().TransferCalibrations.Value(); got != 1+calibrators*iters {
		t.Fatalf("TransferCalibrations = %d, want %d", got, 1+calibrators*iters)
	}
}
