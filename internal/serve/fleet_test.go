package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"voltsense/internal/monitor"
	"voltsense/internal/online"
)

// legacyArtifact matches testPredictor's shape (2 sensors, 3 blocks) as a
// serialized voltsense-predictor/v1 file, for fleet stores on disk.
const legacyArtifact = `{
  "format": "voltsense-predictor/v1",
  "selected_sensors": [3, 7],
  "alpha": [[1, 0], [0, 1], [0.5, 0.5]],
  "c": [0, 0, 0]
}`

func writeArtifact(t testing.TB, dir, id, artifact string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, id+".json"), []byte(artifact), 0o644); err != nil {
		t.Fatal(err)
	}
}

// newFleetServer builds a fleet-mode server over a temp artifact store
// seeded with the given tenants.
func newFleetServer(t *testing.T, cfg Config, tenants map[string]string) (*Server, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	for id, art := range tenants {
		writeArtifact(t, dir, id, art)
	}
	cfg.StoreDir = dir
	if cfg.Monitor.Vth == 0 {
		cfg.Monitor = monitor.Config{Vth: 0.90, ClearMargin: 0.02, ClearCycles: 2}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, dir
}

func predictAs(t *testing.T, ts *httptest.Server, tenantHeader, body string) (int, predictResponse, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenantHeader != "" {
		req.Header.Set(TenantHeader, tenantHeader)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var pr predictResponse
	json.Unmarshal(b, &pr)
	return resp.StatusCode, pr, b
}

func TestFleetRoutingHeaderQueryBodyDefault(t *testing.T) {
	_, ts, _ := newFleetServer(t, Config{}, map[string]string{
		"default": legacyArtifact, // 2 sensors, 3 blocks
		"chipA":   faultArtifact,  // 3 sensors, 1 block
	})

	// No tenant anywhere: the default tenant serves, old clients unchanged.
	code, pr, body := predictAs(t, ts, "", `{"readings":[[0.9,0.7]]}`)
	if code != http.StatusOK || pr.Tenant != "default" || pr.Blocks != 3 {
		t.Fatalf("default route: code %d resp %+v body %s", code, pr, body)
	}

	// Header routing.
	code, pr, body = predictAs(t, ts, "chipA", `{"readings":[[0.95,0.95,0.95]]}`)
	if code != http.StatusOK || pr.Tenant != "chipA" || pr.Blocks != 1 {
		t.Fatalf("header route: code %d resp %+v body %s", code, pr, body)
	}

	// Query-parameter routing.
	code, b := postJSON(t, ts.URL+"/v1/predict?tenant=chipA", `{"readings":[[0.95,0.95,0.95]]}`)
	var qr predictResponse
	json.Unmarshal(b, &qr)
	if code != http.StatusOK || qr.Tenant != "chipA" {
		t.Fatalf("query route: code %d resp %+v", code, qr)
	}

	// Body-field routing.
	code, b = postJSON(t, ts.URL+"/v1/predict", `{"tenant":"chipA","readings":[[0.95,0.95,0.95]]}`)
	json.Unmarshal(b, &qr)
	if code != http.StatusOK || qr.Tenant != "chipA" {
		t.Fatalf("body route: code %d resp %+v", code, qr)
	}

	// Header beats body.
	code, pr, _ = predictAs(t, ts, "chipA", `{"tenant":"default","readings":[[0.95,0.95,0.95]]}`)
	if code != http.StatusOK || pr.Tenant != "chipA" {
		t.Fatalf("precedence: code %d resp %+v", code, pr)
	}

	// Unknown and invalid tenant ids 404 without disturbing anything.
	code, _, b = predictAs(t, ts, "nosuch", `{"readings":[[0.9,0.7]]}`)
	if code != http.StatusNotFound || !strings.Contains(string(b), "unknown tenant") {
		t.Fatalf("unknown tenant: code %d body %s", code, b)
	}
	code, _, _ = predictAs(t, ts, "../../etc/passwd", `{"readings":[[0.9,0.7]]}`)
	if code != http.StatusNotFound {
		t.Fatalf("invalid tenant id: code %d", code)
	}
}

// degradeTenant drives one tenant's fault tier into degraded mode by
// feeding nulls on two sensors (the fixture's fallbacks only cover one).
func degradeTenant(t *testing.T, ts *httptest.Server, tenant string) {
	t.Helper()
	for i := 0; i < 20; i++ {
		code, _, _ := predictAs(t, ts, tenant,
			`{"readings":[[null,null,0.95],[null,null,0.95],[null,null,0.95]]}`)
		if code == http.StatusServiceUnavailable {
			return
		}
	}
	t.Fatalf("tenant %s never degraded", tenant)
}

// TestFleetFaultIsolation is the cross-tenant acceptance check: a fault
// storm that degrades one tenant must leave every other tenant serving.
func TestFleetFaultIsolation(t *testing.T) {
	s, ts, _ := newFleetServer(t, Config{}, map[string]string{
		"default": faultArtifact,
		"chipA":   faultArtifact,
		"chipB":   faultArtifact,
	})
	// Warm chipB so it is resident before chipA's storm.
	if code, _, b := predictAs(t, ts, "chipB", jitteredBatch(0)); code != http.StatusOK {
		t.Fatalf("chipB warmup: %d %s", code, b)
	}

	degradeTenant(t, ts, "chipA")

	// chipA is down hard: predict and new streams both refuse.
	code, _, b := predictAs(t, ts, "chipA", jitteredBatch(0))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded chipA predict: code %d body %s", code, b)
	}

	// Its neighbors never notice.
	for _, tenant := range []string{"", "chipB"} {
		code, _, b := predictAs(t, ts, tenant, jitteredBatch(0))
		if code != http.StatusOK {
			t.Fatalf("tenant %q degraded by chipA's faults: code %d body %s", tenant, code, b)
		}
	}

	// The per-tenant gauges tell the two states apart; the default tenant's
	// health endpoint still reports ok.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exp := string(mb)
	for _, want := range []string{
		`voltserved_tenant_degraded{tenant="chipA"} 1`,
		`voltserved_tenant_degraded{tenant="chipB"} 0`,
		`voltserved_tenant_degraded{tenant="default"} 0`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	var hz map[string]any
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(hres.Body).Decode(&hz)
	hres.Body.Close()
	if hz["status"] != "ok" {
		t.Errorf("default tenant health = %v after chipA degraded", hz["status"])
	}
	_ = s
}

// jitteredBatch returns a one-row predict body for faultArtifact's three
// sensors: readings within 5 mV of the 0.95 V training mean that change
// with i. A guarded tenant's flatline detector rightly marks every sensor
// stuck once a full window (32 cycles) of identical readings arrives, so
// tests that loop must not send a constant row.
func jitteredBatch(i int) string {
	r := func(k int) float64 { return 0.95 + 0.005*math.Sin(float64(3*i+k)) }
	return fmt.Sprintf(`{"readings":[[%.6f,%.6f,%.6f]]}`, r(0), r(1), r(2))
}

// TestFleetReloadUnderTrafficPreservesUntouchedTenants rewrites one
// tenant's artifact and rescans while concurrent traffic hits two tenants:
// only the changed tenant swaps, and the untouched tenant keeps its runtime
// — same *Tenant, same generation, same accumulated adapter state. Run with
// -race this is the reload-under-traffic acceptance check.
func TestFleetReloadUnderTrafficPreservesUntouchedTenants(t *testing.T) {
	s, ts, dir := newFleetServer(t, Config{
		Adapt:      true,
		Adaptation: online.Config{EvalWindow: 64, MinSamples: 64},
	}, map[string]string{
		"default": faultArtifact,
		"a":       faultArtifact,
		"b":       faultArtifact,
	})
	// Warm both and feed b's adapter some state worth preserving.
	if code, _, b := predictAs(t, ts, "a", jitteredBatch(0)); code != http.StatusOK {
		t.Fatalf("warm a: %d %s", code, b)
	}
	fb := `{"tenant":"b","samples":[{"readings":[0.95,0.95,0.95],"voltages":[0.95]}]}`
	if code, b := postJSON(t, ts.URL+"/v1/feedback", fb); code != http.StatusOK {
		t.Fatalf("feedback b: %d %s", code, b)
	}
	vb, ok := s.Registry().Peek("b")
	if !ok {
		t.Fatal("b not resident")
	}
	tnB := vb.(*Tenant)
	genB := tnB.Generation()
	ingestedB := tnB.adapter.Load().ad.Status().Ingested
	if ingestedB == 0 {
		t.Fatal("b's adapter ingested nothing")
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, tenant := range []string{"a", "b"} {
		tenant := tenant
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				code, _, body := predictAs(t, ts, tenant, jitteredBatch(i))
				if code != http.StatusOK {
					t.Errorf("tenant %s mid-reload: code %d body %s", tenant, code, body)
					return
				}
			}
		}()
	}

	// Rewrite a's artifact (different byte length changes the fingerprint
	// even on coarse mtime clocks) and rescan under the traffic.
	writeArtifact(t, dir, "a", faultArtifact+"\n")
	code, body := postJSON(t, ts.URL+"/v1/reload", "")
	stop.Store(true)
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("reload: %d %s", code, body)
	}
	var rr struct {
		Reloaded []string `json:"reloaded"`
		Removed  []string `json:"removed"`
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rr.Reloaded) != "[a]" || len(rr.Removed) != 0 {
		t.Fatalf("rescan touched the wrong tenants: %+v", rr)
	}

	// a was rebuilt on a new generation; b is bit-identical the same.
	va, _ := s.Registry().Peek("a")
	if va.(*Tenant).Generation() <= genB {
		t.Errorf("a's generation did not advance: %d", va.(*Tenant).Generation())
	}
	vb2, _ := s.Registry().Peek("b")
	if vb2.(*Tenant) != tnB {
		t.Error("untouched tenant b was rebuilt by the rescan")
	}
	if got := tnB.Generation(); got != genB {
		t.Errorf("b's generation changed: %d -> %d", genB, got)
	}
	if got := tnB.adapter.Load().ad.Status().Ingested; got != ingestedB {
		t.Errorf("b's adapter state reset: ingested %d -> %d", ingestedB, got)
	}
}

// TestFleetLRUEvictionBoundsMetricCardinality loads more tenants than the
// cache holds and checks the label-cardinality invariant: counter series
// only exist for resident tenants (plus one _retired aggregate), totals
// stay monotone through evictions, and the pinned default survives.
func TestFleetLRUEvictionBoundsMetricCardinality(t *testing.T) {
	store := map[string]string{"default": legacyArtifact}
	for i := 1; i <= 5; i++ {
		store[fmt.Sprintf("t%d", i)] = legacyArtifact
	}
	s, ts, _ := newFleetServer(t, Config{MaxTenants: 2}, store)

	for i := 1; i <= 5; i++ {
		code, _, b := predictAs(t, ts, fmt.Sprintf("t%d", i), `{"readings":[[0.9,0.7]]}`)
		if code != http.StatusOK {
			t.Fatalf("t%d: %d %s", i, code, b)
		}
	}
	total := s.Metrics().PredictionsTotal()
	if total != 5 {
		t.Fatalf("PredictionsTotal = %d, want 5 (monotone through evictions)", total)
	}
	if got := s.Registry().Len(); got > 2 {
		t.Fatalf("resident tenants = %d, want <= 2", got)
	}
	if got := s.Metrics().TenantLabelCount(); got > 2 {
		t.Fatalf("tenant label cardinality = %d, want <= resident 2", got)
	}
	if fmt.Sprint(s.Registry().Resident()) != "[default t5]" {
		t.Fatalf("resident = %v (pinned default must survive)", s.Registry().Resident())
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exp := string(b)
	for _, want := range []string{
		`voltserved_predictions_total{tenant="_retired",model_generation="all"} 4`,
		`voltserved_predictions_total{tenant="t5",`,
		"voltserved_tenant_evictions_total 4",
		"voltserved_tenants_resident 2",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for i := 1; i <= 4; i++ {
		if evicted := fmt.Sprintf(`{tenant="t%d"`, i); strings.Contains(exp, evicted) {
			t.Errorf("evicted tenant t%d still has labeled series", i)
		}
	}

	// Evicted tenants reload on demand; their counters restart under the
	// resident label while the retired aggregate keeps the history.
	if code, _, _ := predictAs(t, ts, "t1", `{"readings":[[0.9,0.7]]}`); code != http.StatusOK {
		t.Fatalf("re-load after eviction: %d", code)
	}
	if got := s.Metrics().PredictionsTotal(); got != 6 {
		t.Fatalf("PredictionsTotal after re-load = %d, want 6", got)
	}
}

// TestOverloadAdmissionSheds saturates a MaxInflight=1 server and checks
// the shed contract: 503, Retry-After, machine-readable reason, and the
// shed counters.
func TestOverloadAdmissionSheds(t *testing.T) {
	s, ts, _ := newFleetServer(t, Config{
		Overload: Overload{MaxInflight: 1, MaxQueue: 1, QueueTimeout: 30 * time.Millisecond, RetryAfter: 7 * time.Second},
	}, map[string]string{"default": legacyArtifact})

	// Hold the only slot: a predict whose body arrives byte by byte.
	pr, pw := io.Pipe()
	done := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", pr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if inflight, _ := s.adm.stats(); inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot holder never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// Second request queues (MaxQueue 1) and times out: queue_timeout.
	code, body := postJSON(t, ts.URL+"/v1/predict", `{"readings":[[0.9,0.7]]}`)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), shedQueueTimeout) {
		t.Fatalf("queued request: code %d body %s", code, body)
	}

	// With the queue occupied, a third arrival sheds instantly: queue_full.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts.URL+"/v1/predict", `{"readings":[[0.9,0.7]]}`)
	}()
	deadline = time.Now().Add(2 * time.Second)
	for {
		if _, queued := s.adm.stats(); queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no request ever queued")
		}
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(`{"readings":[[0.9,0.7]]}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wg.Wait()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(b), shedQueueFull) {
		t.Fatalf("overflow request: code %d body %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want %q", got, "7")
	}
	var shedResp struct{ Reason string }
	if err := json.Unmarshal(b, &shedResp); err != nil || shedResp.Reason != shedQueueFull {
		t.Errorf("shed body reason = %q (%v)", shedResp.Reason, err)
	}

	// Release the slot; the held request completes normally.
	io.WriteString(pw, `{"readings":[[0.9,0.7]]}`)
	pw.Close()
	if got := <-done; got != http.StatusOK {
		t.Fatalf("held request finished %d", got)
	}
	if s.Metrics().Shed.Value() < 2 {
		t.Errorf("shed counter = %d, want >= 2", s.Metrics().Shed.Value())
	}
}

// openStream starts an NDJSON session and keeps it open until the returned
// close func runs; the response status is available immediately because the
// server writes headers up front.
func openStream(t *testing.T, ts *httptest.Server, tenant string) (status int, closeFn func()) {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, func() {
		pw.Close()
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func TestOverloadStreamCaps(t *testing.T) {
	s, ts, _ := newFleetServer(t, Config{
		Overload: Overload{MaxStreams: 3, MaxTenantStreams: 1},
	}, map[string]string{
		"default": legacyArtifact,
		"chipA":   legacyArtifact,
		"chipB":   legacyArtifact,
	})

	// One stream per tenant is fine; a second on the same tenant sheds with
	// tenant_stream_cap while other tenants stay unaffected.
	code, closeA := openStream(t, ts, "chipA")
	if code != http.StatusOK {
		t.Fatalf("first chipA stream: %d", code)
	}
	defer closeA()
	code, closeA2 := openStream(t, ts, "chipA")
	closeA2()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("second chipA stream: code %d, want 503", code)
	}
	code, closeB := openStream(t, ts, "chipB")
	if code != http.StatusOK {
		t.Fatalf("chipB stream blocked by chipA's cap: %d", code)
	}
	defer closeB()

	// The global cap bites across tenants: 3 open (chipA, chipB, default),
	// a 4th sheds with stream_cap regardless of tenant.
	code, closeD := openStream(t, ts, "")
	if code != http.StatusOK {
		t.Fatalf("default stream: %d", code)
	}
	defer closeD()
	code, closeX := openStream(t, ts, "chipB")
	closeX()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("4th stream: code %d, want 503", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exp := string(b)
	for _, want := range []string{
		`voltserved_tenant_shed_total{tenant="chipA",reason="tenant_stream_cap"} 1`,
		`voltserved_tenant_shed_total{tenant="chipB",reason="stream_cap"} 1`,
		"voltserved_shed_total 2",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Releasing a stream frees its tenant's slot.
	closeA()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, _ := s.Registry().Peek("chipA"); v != nil && v.(*Tenant).streams.Load() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("chipA stream slot never released")
		}
		time.Sleep(time.Millisecond)
	}
	code, closeA3 := openStream(t, ts, "chipA")
	closeA3()
	if code != http.StatusOK {
		t.Fatalf("stream after release: %d", code)
	}
}

// TestFleetMetricsEveryFamilyHasTypeLine re-runs the TYPE-line invariant
// sweep against a fleet exposition carrying tenant-labeled families,
// retired aggregates, and shed counters.
func TestFleetMetricsEveryFamilyHasTypeLine(t *testing.T) {
	_, ts, _ := newFleetServer(t, Config{MaxTenants: 2, Overload: Overload{MaxTenantStreams: 1}},
		map[string]string{
			"default": legacyArtifact,
			"t1":      legacyArtifact,
			"t2":      legacyArtifact,
			"t3":      legacyArtifact,
		})
	// Touch enough tenants to force an eviction (retired series), and shed
	// a stream (tenant shed series).
	for _, tenant := range []string{"t1", "t2", "t3"} {
		if code, _, b := predictAs(t, ts, tenant, `{"readings":[[0.9,0.7]]}`); code != http.StatusOK {
			t.Fatalf("%s: %d %s", tenant, code, b)
		}
	}
	_, close1 := openStream(t, ts, "t3")
	code, close2 := openStream(t, ts, "t3")
	close2()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("shed setup stream: %d", code)
	}
	close1()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	checkFamilyTypeLines(t, string(body))
	if !strings.Contains(string(body), `tenant="_retired"`) {
		t.Error("eviction left no retired aggregate in the exposition")
	}
}

// checkFamilyTypeLines asserts every sample line's family was declared by
// exactly one preceding # TYPE line.
func checkFamilyTypeLines(t *testing.T, body string) {
	t.Helper()
	declared := map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			declared[fields[2]]++
			continue
		}
	}
	for family, n := range declared {
		if n != 1 {
			t.Errorf("family %s declared by %d TYPE lines", family, n)
		}
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		ok := declared[name] > 0
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if declared[strings.TrimSuffix(name, suf)] > 0 {
				ok = true
			}
		}
		if !ok {
			t.Errorf("sample %q has no # TYPE declaration", name)
		}
	}
}

// TestFleetFeedbackAndRollbackRouting exercises the adapt endpoints with a
// tenant body field and header, ensuring adapters are per-tenant.
func TestFleetFeedbackAndRollbackRouting(t *testing.T) {
	s, ts, _ := newFleetServer(t, Config{
		Adapt:      true,
		Adaptation: online.Config{EvalWindow: 64, MinSamples: 64},
	}, map[string]string{
		"default": faultArtifact,
		"chipA":   faultArtifact,
	})
	fb := `{"tenant":"chipA","samples":[{"readings":[0.95,0.95,0.95],"voltages":[0.95]}]}`
	if code, b := postJSON(t, ts.URL+"/v1/feedback", fb); code != http.StatusOK {
		t.Fatalf("feedback: %d %s", code, b)
	}
	va, _ := s.Registry().Peek("chipA")
	if got := va.(*Tenant).adapter.Load().ad.Status().Ingested; got != 1 {
		t.Errorf("chipA ingested = %d, want 1", got)
	}
	if got := s.defaultTenant().adapter.Load().ad.Status().Ingested; got != 0 {
		t.Errorf("default ingested = %d, want 0 (cross-tenant leak)", got)
	}
	// Rollback routes too; with nothing promoted it reports a conflict for
	// the right tenant.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/rollback", nil)
	req.Header.Set(TenantHeader, "chipA")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rollback: %d %s", resp.StatusCode, b)
	}
}
