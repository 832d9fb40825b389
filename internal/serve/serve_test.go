package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"voltsense/internal/core"
	"voltsense/internal/mat"
	"voltsense/internal/monitor"
	"voltsense/internal/ols"
)

// testPredictor builds a 2-sensor, 3-block model with hand-picked
// coefficients: block0 = reading0, block1 = reading1, block2 = their mean.
func testPredictor() *core.Predictor {
	alpha := mat.Zeros(3, 2)
	alpha.Set(0, 0, 1)
	alpha.Set(1, 1, 1)
	alpha.Set(2, 0, 0.5)
	alpha.Set(2, 1, 0.5)
	return &core.Predictor{
		Selected: []int{3, 7},
		Model:    &ols.Model{Alpha: alpha, C: []float64{0, 0, 0}},
	}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Loader:  func() (*core.Predictor, error) { return testPredictor(), nil },
		Monitor: monitor.Config{Vth: 0.95, ClearMargin: 0.02, ClearCycles: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestPredictSingleAndBatch(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/predict", `{"readings":[[0.9,0.7],[1.0,0.5]]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp predictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Blocks != 3 || resp.ModelGeneration != 1 {
		t.Fatalf("resp meta = %+v", resp)
	}
	want := [][]float64{{0.9, 0.7, 0.8}, {1.0, 0.5, 0.75}}
	if len(resp.Voltages) != len(want) {
		t.Fatalf("got %d rows", len(resp.Voltages))
	}
	for i := range want {
		for j := range want[i] {
			if math.Abs(resp.Voltages[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("voltages[%d][%d] = %v, want %v", i, j, resp.Voltages[i][j], want[i][j])
			}
		}
	}
}

func TestPredictRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t)
	cases := map[string]struct {
		body string
		want int
	}{
		"malformed json":   {`{"readings":[[0.9,`, http.StatusBadRequest},
		"not an object":    {`[1,2,3]`, http.StatusBadRequest},
		"empty batch":      {`{"readings":[]}`, http.StatusBadRequest},
		"missing field":    {`{}`, http.StatusBadRequest},
		"short vector":     {`{"readings":[[0.9]]}`, http.StatusBadRequest},
		"long vector":      {`{"readings":[[0.9,0.9,0.9]]}`, http.StatusBadRequest},
		"second row short": {`{"readings":[[0.9,0.9],[0.9]]}`, http.StatusBadRequest},
		"null reading":     {`{"readings":[null]}`, http.StatusBadRequest},
	}
	for name, tc := range cases {
		code, body := postJSON(t, ts.URL+"/v1/predict", tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", name, code, tc.want, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body missing: %s", name, body)
		}
	}
}

func TestPredictRejectsNonFinite(t *testing.T) {
	_, ts := newTestServer(t)
	// NaN is not valid JSON, so the attack arrives as huge-exponent numbers
	// or via decoder failure; both must 400.
	code, _ := postJSON(t, ts.URL+"/v1/predict", `{"readings":[[NaN,0.9]]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("NaN literal: status %d", code)
	}
}

func TestPredictBatchLimit(t *testing.T) {
	s, err := New(Config{
		Loader:   func() (*core.Predictor, error) { return testPredictor(), nil },
		Monitor:  monitor.Config{Vth: 0.95},
		MaxBatch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, _ := postJSON(t, ts.URL+"/v1/predict", `{"readings":[[0.9,0.9],[0.9,0.9],[0.9,0.9]]}`)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/v1/predict"},
		{http.MethodGet, "/v1/stream"},
		{http.MethodGet, "/v1/reload"},
		{http.MethodPost, "/healthz"},
		{http.MethodPost, "/metrics"},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["sensors"] != 2.0 || h["blocks"] != 3.0 || h["model_generation"] != 1.0 {
		t.Fatalf("healthz = %v", h)
	}
}

// streamCycles posts NDJSON cycles to /v1/stream and returns the raw
// response lines.
func streamCycles(t *testing.T, url string, lines []string) []string {
	t.Helper()
	body := strings.Join(lines, "\n") + "\n"
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var out []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamZeroCycleSummary: a session that ends before its first cycle
// still closes with its summary line, worst_voltage null and worst_block
// -1, and a session with cycles writes the worst voltage as a number.
func TestStreamZeroCycleSummary(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"summary":{"cycles":0,"alarms":0,"emergency_cycles":0,"worst_voltage":null,"worst_block":-1,"active_alarms":[]}}` + "\n"
	if resp.StatusCode != http.StatusOK || string(body) != want {
		t.Fatalf("empty stream: status %d body %q, want 200 %q", resp.StatusCode, body, want)
	}
	got := streamCycles(t, ts.URL+"/v1/stream", []string{`{"readings":[0.99,0.97]}`})
	if last := got[len(got)-1]; !strings.Contains(last, `"worst_voltage":0.97,"worst_block":`) {
		t.Fatalf("one-cycle summary %q lacks a numeric worst voltage", last)
	}
}

func TestStreamRaiseClearAndSummary(t *testing.T) {
	s, ts := newTestServer(t)
	lines := []string{
		`{"readings":[0.99,0.99]}`, // quiet
		`{"readings":[0.90,0.99]}`, // block0 + block2 (mean 0.945) dip below 0.95
		`{"readings":[0.99,0.99]}`, // recovered 1
		`{"readings":[0.99,0.99]}`, // recovered 2 → clear
	}
	got := streamCycles(t, ts.URL+"/v1/stream", lines)
	var events []streamEvent
	var summary *streamSummary
	for _, ln := range got {
		if strings.Contains(ln, `"summary"`) {
			var wrap map[string]streamSummary
			if err := json.Unmarshal([]byte(ln), &wrap); err != nil {
				t.Fatal(err)
			}
			s := wrap["summary"]
			summary = &s
			continue
		}
		var e streamEvent
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	// Cycle 1 raises blocks 0 and 2; cycle 3 clears both.
	if len(events) != 4 {
		t.Fatalf("events = %v", events)
	}
	if events[0].Kind != "raised" || events[0].Cycle != 1 || events[0].Block != 0 {
		t.Fatalf("events[0] = %+v", events[0])
	}
	if events[1].Kind != "raised" || events[1].Block != 2 {
		t.Fatalf("events[1] = %+v", events[1])
	}
	if events[2].Kind != "cleared" || events[2].Cycle != 3 {
		t.Fatalf("events[2] = %+v", events[2])
	}
	if summary == nil {
		t.Fatal("no summary line")
	}
	if summary.Cycles != 4 || summary.Alarms != 2 || len(summary.ActiveAlarms) != 0 {
		t.Fatalf("summary = %+v", summary)
	}
	if summary.WorstVoltage == nil || *summary.WorstVoltage != 0.90 || summary.WorstBlock != 0 {
		t.Fatalf("summary worst = %+v", summary)
	}
	if s.Metrics().AlarmsRaised.Value() != 2 || s.Metrics().AlarmsCleared.Value() != 2 {
		t.Fatalf("alarm metrics = %d/%d", s.Metrics().AlarmsRaised.Value(), s.Metrics().AlarmsCleared.Value())
	}
}

func TestStreamExplicitCyclesAndVoltageEcho(t *testing.T) {
	_, ts := newTestServer(t)
	lines := []string{
		`{"cycle":100,"readings":[0.99,0.99]}`,
		`{"readings":[0.99,0.97]}`, // implicit cycle 101
	}
	got := streamCycles(t, ts.URL+"/v1/stream?emit_voltages=true", lines)
	if len(got) != 3 { // two voltage lines + summary
		t.Fatalf("lines = %v", got)
	}
	var v streamVoltages
	if err := json.Unmarshal([]byte(got[1]), &v); err != nil {
		t.Fatal(err)
	}
	if v.Cycle != 101 || len(v.Voltages) != 3 || v.Voltages[2] != 0.98 {
		t.Fatalf("voltage echo = %+v", v)
	}
}

func TestStreamSessionConfigOverride(t *testing.T) {
	_, ts := newTestServer(t)
	// Default Vth 0.95 would alarm on 0.93; override to 0.90 keeps it quiet.
	got := streamCycles(t, ts.URL+"/v1/stream?vth=0.90", []string{`{"readings":[0.93,0.93]}`})
	if len(got) != 1 || !strings.Contains(got[0], `"summary"`) {
		t.Fatalf("lines = %v", got)
	}
	if !strings.Contains(got[0], `"active_alarms":[]`) {
		t.Fatalf("quiet summary should report [], not null: %s", got[0])
	}
	// Invalid overrides are rejected before the stream starts.
	for _, q := range []string{"vth=abc", "clear_margin=x", "clear_cycles=1.5", "vth=-1"} {
		code, _ := postJSON(t, ts.URL+"/v1/stream?"+q, "")
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}
}

func TestStreamBadInputLines(t *testing.T) {
	_, ts := newTestServer(t)
	cases := map[string][]string{
		"malformed json": {`{"readings":[0.99,0.99]}`, `{not json`},
		"wrong length":   {`{"readings":[0.99]}`},
		"non-finite":     {`{"readings":[0.99,1e999]}`},
	}
	for name, lines := range cases {
		got := streamCycles(t, ts.URL+"/v1/stream", lines)
		if len(got) == 0 || !strings.Contains(got[len(got)-1], `"error"`) {
			t.Errorf("%s: want trailing error line, got %v", name, got)
		}
	}
}

func TestStreamMidStreamDisconnect(t *testing.T) {
	s, ts := newTestServer(t)
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(pw, `{"readings":[0.99,0.99]}`)
	waitFor(t, "stream to open", func() bool { return s.Metrics().ActiveStreams.Value() == 1 })
	// Abort the upload mid-stream: the server must tear the session down
	// and release the pooled monitor.
	pw.CloseWithError(errors.New("client went away"))
	resp.Body.Close()
	waitFor(t, "stream teardown", func() bool { return s.Metrics().ActiveStreams.Value() == 0 })
	if s.Metrics().StreamsTotal.Value() != 1 {
		t.Fatalf("StreamsTotal = %d", s.Metrics().StreamsTotal.Value())
	}
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStreamPooledSessionsAreIsolated reuses one connection's monitor for a
// later session and checks no alarm state or statistics leak across.
func TestStreamPooledSessionsAreIsolated(t *testing.T) {
	_, ts := newTestServer(t)
	// Session 1 ends with an alarm still open.
	got := streamCycles(t, ts.URL+"/v1/stream", []string{`{"readings":[0.80,0.99]}`})
	last := got[len(got)-1]
	if !strings.Contains(last, `"active_alarms":[0,2]`) {
		t.Fatalf("session 1 summary = %s", last)
	}
	// Session 2 (same pooled monitor, freshly Reset) must start clean.
	got = streamCycles(t, ts.URL+"/v1/stream", []string{`{"readings":[0.99,0.99]}`})
	last = got[len(got)-1]
	var wrap map[string]streamSummary
	if err := json.Unmarshal([]byte(last), &wrap); err != nil {
		t.Fatal(err)
	}
	sum := wrap["summary"]
	if sum.Cycles != 1 || sum.Alarms != 0 || len(sum.ActiveAlarms) != 0 || sum.WorstVoltage == nil || *sum.WorstVoltage != 0.99 {
		t.Fatalf("pooled session leaked state: %+v", sum)
	}
}

func TestReloadHotSwapsAtomically(t *testing.T) {
	var mu sync.Mutex
	scale := 1.0
	fail := false
	loader := func() (*core.Predictor, error) {
		mu.Lock()
		defer mu.Unlock()
		if fail {
			return nil, errors.New("artifact corrupt")
		}
		p := testPredictor()
		for i := 0; i < p.Model.Alpha.Rows(); i++ {
			row := p.Model.Alpha.Row(i)
			for j := range row {
				row[j] *= scale
			}
		}
		return p, nil
	}
	s, err := New(Config{Loader: loader, Monitor: monitor.Config{Vth: 0.95}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Open a stream on generation 1, then reload generation 2 under it.
	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", pr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fmt.Fprintln(pw, `{"readings":[0.99,0.99]}`)
	waitFor(t, "stream to open", func() bool { return s.Metrics().ActiveStreams.Value() == 1 })

	mu.Lock()
	scale = 2.0
	mu.Unlock()
	code, body := postJSON(t, ts.URL+"/v1/reload", "")
	if code != http.StatusOK {
		t.Fatalf("reload: %d %s", code, body)
	}
	if s.Generation() != 2 || s.Metrics().Reloads.Value() != 1 {
		t.Fatalf("generation %d, reloads %d", s.Generation(), s.Metrics().Reloads.Value())
	}

	// New predictions use the doubled model.
	code, pbody := postJSON(t, ts.URL+"/v1/predict", `{"readings":[[0.5,0.5]]}`)
	if code != http.StatusOK {
		t.Fatalf("predict: %d %s", code, pbody)
	}
	var presp predictResponse
	if err := json.Unmarshal(pbody, &presp); err != nil {
		t.Fatal(err)
	}
	if presp.ModelGeneration != 2 || presp.Voltages[0][0] != 1.0 {
		t.Fatalf("post-reload predict = %+v", presp)
	}

	// The in-flight stream still runs generation 1: 0.93 is below Vth for
	// the old identity model, and must alarm with the old voltage.
	fmt.Fprintln(pw, `{"readings":[0.93,0.99]}`)
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no event from in-flight stream")
	}
	var e streamEvent
	if err := json.Unmarshal([]byte(sc.Text()), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "raised" || e.Block != 0 || e.Voltage != 0.93 {
		t.Fatalf("in-flight stream saw new model: %+v", e)
	}
	pw.Close()

	// A failing reload keeps the current model serving.
	mu.Lock()
	fail = true
	mu.Unlock()
	code, body = postJSON(t, ts.URL+"/v1/reload", "")
	if code != http.StatusInternalServerError || !bytes.Contains(body, []byte("artifact corrupt")) {
		t.Fatalf("failed reload: %d %s", code, body)
	}
	if s.Generation() != 2 {
		t.Fatalf("generation moved to %d on failed reload", s.Generation())
	}
	code, _ = postJSON(t, ts.URL+"/v1/predict", `{"readings":[[0.5,0.5]]}`)
	if code != http.StatusOK {
		t.Fatal("old model stopped serving after failed reload")
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/predict", `{"readings":[[0.9,0.9]]}`)
	postJSON(t, ts.URL+"/v1/predict", `{"readings":[[bad`)
	streamCycles(t, ts.URL+"/v1/stream", []string{`{"readings":[0.80,0.99]}`})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	text := string(b)
	for _, want := range []string{
		`voltserved_requests_total{path="/v1/predict",code="200"} 1`,
		`voltserved_requests_total{path="/v1/predict",code="400"} 1`,
		`voltserved_requests_total{path="/v1/stream",code="200"} 1`,
		`voltserved_request_seconds_count{path="/v1/predict"} 2`,
		`voltserved_request_seconds_bucket{path="/v1/predict",le="+Inf"} 2`,
		"voltserved_active_streams 0",
		"voltserved_streams_total 1",
		`voltserved_predictions_total{tenant="default",model_generation="1"} 2`,
		"# TYPE voltserved_predictions_total counter",
		"voltserved_alarms_raised_total 2",
		"# TYPE voltserved_request_seconds histogram",
		"voltserved_model_generation 1",
		"# TYPE voltsense_build_info gauge",
		`goversion="` + runtime.Version() + `"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestConcurrentStreams drives 12 concurrent streaming sessions (plus
// predict traffic) against one server; run under -race this is the
// acceptance check that per-session monitor state never crosses sessions.
func TestConcurrentStreams(t *testing.T) {
	s, ts := newTestServer(t)
	const sessions = 12
	const cycles = 50
	var wg sync.WaitGroup
	errs := make(chan error, sessions+1)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Even sessions alarm every cycle pair; odd sessions stay quiet.
			dip := id%2 == 0
			var lines []string
			for c := 0; c < cycles; c++ {
				v := 0.99
				if dip && c%2 == 0 {
					v = 0.80
				}
				lines = append(lines, fmt.Sprintf(`{"readings":[%g,0.99]}`, v))
			}
			body := strings.Join(lines, "\n")
			resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var summary streamSummary
			found := false
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if strings.Contains(sc.Text(), `"summary"`) {
					var wrap map[string]streamSummary
					if err := json.Unmarshal(sc.Bytes(), &wrap); err != nil {
						errs <- err
						return
					}
					summary = wrap["summary"]
					found = true
				}
			}
			if !found {
				errs <- fmt.Errorf("session %d: no summary", id)
				return
			}
			if summary.Cycles != cycles {
				errs <- fmt.Errorf("session %d: %d cycles, want %d", id, summary.Cycles, cycles)
				return
			}
			// A 0.80 dip drags block 0 and block 2 (the mean) below Vth at
			// cycle 0, and with ClearCycles 2 against a dip every other
			// cycle those alarms never clear: two raise events per dipper.
			wantAlarms := 0
			if dip {
				wantAlarms = 2
			}
			if summary.Alarms != wantAlarms {
				errs <- fmt.Errorf("session %d: %d alarms, want %d", id, summary.Alarms, wantAlarms)
			}
		}(i)
	}
	// Concurrent predict load against the same model.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			code, body := postJSON(t, ts.URL+"/v1/predict", `{"readings":[[0.9,0.9]]}`)
			if code != http.StatusOK {
				errs <- fmt.Errorf("predict under load: %d %s", code, body)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Metrics().StreamsTotal.Value(); got != sessions {
		t.Errorf("StreamsTotal = %d, want %d", got, sessions)
	}
	if got := s.Metrics().ActiveStreams.Value(); got != 0 {
		t.Errorf("ActiveStreams = %d after drain", got)
	}
	if got := s.Metrics().AlarmsRaised.Value(); got != sessions {
		t.Errorf("AlarmsRaised = %d, want %d (two raises per dipping session)", got, sessions)
	}
}

func TestShutdownDrainsCleanly(t *testing.T) {
	s, err := New(Config{
		Loader:  func() (*core.Predictor, error) { return testPredictor(), nil },
		Monitor: monitor.Config{Vth: 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shutdown with no listener is a no-op.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
