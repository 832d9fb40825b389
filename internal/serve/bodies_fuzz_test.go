package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The fuzz targets below drive the remaining external request bodies — the
// /v1/stream NDJSON lines and the /v1/feedback and /v1/calibrate bodies —
// through the real handler of a fresh server on each input, so a failure
// reproduces from its input alone. Whatever the body, the handler must not
// panic or answer 500 (the stores are healthy temp directories), every
// error body must be an {"error": "..."} object, and every 200 body and
// NDJSON line must be valid JSON.

// serveBody posts body to path on s's handler and returns the recorded
// response.
func serveBody(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// checkBody requires a non-500 response whose body is one JSON object: an
// {"error": "..."} object unless the status is 200.
func checkBody(t *testing.T, body []byte, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code == http.StatusInternalServerError {
		t.Fatalf("%q: 500 %s", body, rec.Body)
	}
	if rec.Code == http.StatusOK {
		var v map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("%q: 200 body %q is not a JSON object: %v", body, rec.Body, err)
		}
		return
	}
	checkErrorObject(t, body, rec.Body.Bytes())
}

// checkErrorObject requires out to be exactly {"error": "<non-empty>"}.
func checkErrorObject(t *testing.T, body, out []byte) {
	t.Helper()
	var e map[string]string
	if err := json.Unmarshal(out, &e); err != nil || len(e) != 1 || e["error"] == "" {
		t.Fatalf("%q: error body %q is not an {\"error\":…} object", body, out)
	}
}

func FuzzStreamBody(f *testing.F) {
	for _, body := range []string{
		``, `{"readings":[0.99,0.97]}`,
		"{\"readings\":[0.99,0.99]}\n{\"readings\":[0.90,0.99]}\n{\"readings\":[0.99,0.99]}\n{\"readings\":[0.99,0.99]}",
		"{\"cycle\":100,\"readings\":[0.99,0.99]}\n{\"readings\":[0.99,0.97]}",
		"{\"readings\":[0.99,0.99]}\n{not json", `{"readings":[0.99]}`, `{"readings":[0.99,1e999]}`,
		`{"readings":[null,0.99]}`, `{"readings":[0.80,0.99]}`, `{"cycle":-1,"readings":[1e308,1e308]}`,
	} {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, emitVoltages bool) {
		s, _ := newTestServer(t)
		path := "/v1/stream"
		if emitVoltages {
			path += "?emit_voltages=true"
		}
		rec := serveBody(s, path, body)
		if rec.Code != http.StatusOK {
			checkBody(t, body, rec)
			return
		}
		out := rec.Body.Bytes()
		if len(out) == 0 || out[len(out)-1] != '\n' {
			t.Fatalf("%q: stream body %q does not end in a complete line", body, out)
		}
		for _, line := range bytes.Split(out[:len(out)-1], []byte("\n")) {
			var v map[string]json.RawMessage
			if err := json.Unmarshal(line, &v); err != nil {
				t.Fatalf("%q: NDJSON line %q is not a JSON object: %v", body, line, err)
			}
			if _, ok := v["error"]; ok {
				checkErrorObject(t, body, line)
			}
		}
	})
}

func FuzzFeedbackBody(f *testing.F) {
	alpha, c := adaptChip(4, 6)
	h := &adaptHarness{alpha: alpha, c: c, rng: rand.New(rand.NewSource(7))}
	for _, body := range []string{
		h.feedbackBody(1, 0), h.feedbackBody(4, 0.08), `{"samples":[]}`, `{}`, `{"samples":[{`,
		`{"samples":[{"readings":[0.9,0.9,0.9],"voltages":[0.9,0.9,0.9,0.9,0.9,0.9]}]}`,
		`{"samples":[{"readings":[0.9,0.9,0.9,0.9],"voltages":[0.9]}]}`,
		`{"samples":[{"readings":[0.9,null,0.9,0.9],"voltages":[0.9,0.9,0.9,0.9,0.9,0.9]}]}`,
		`{"tenant":"nobody","samples":[{"readings":[0.9,0.9,0.9,0.9],"voltages":[0.9,0.9,0.9,0.9,0.9,0.9]}]}`,
		`{"samples":[{"readings":[1e308,1e308,1e308,1e308],"voltages":[1e308,-1e308,1e308,1e308,1e308,1e308]}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h := newAdaptServer(t, nil)
		checkBody(t, body, serveBody(h.s, "/v1/feedback", body))
	})
}

func FuzzCalibrateBody(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	for _, body := range []string{
		calibBody(f, "chipNew", rng, 4), calibBody(f, "default", rng, 1), calibBody(f, "", rng, 2),
		`{"tenant":"zeroshot","samples":[]}`, `{"samples":[]}`, `{"tenant":"../evil","samples":[]}`,
		`{"tenant":"bad","samples":[{"readings":[1.0],"voltages":[1,1,1]}]}`,
		`{"tenant":"bad","samples":[{"readings":[1.0,1.0],"voltages":[1,1]}]}`,
		`{"tenant":"bad","samples":[{"readings":[null,1.0],"voltages":[1,1,1]}]}`,
		`{"tenant":"big","samples":[{"readings":[1e308,-1e308],"voltages":[1e308,1e308,-1e308]}]}`,
		`{"tenant":`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, _, _ := newFleetServer(t, Config{Prior: testPrior()}, map[string]string{"default": legacyArtifact})
		checkBody(t, body, serveBody(s, "/v1/calibrate", body))
	})
}
