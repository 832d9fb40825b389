package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"voltsense/internal/core"
	"voltsense/internal/mat"
	"voltsense/internal/monitor"
	"voltsense/internal/ols"
)

// benchPredictor builds a paper-scale model: 8 sensors predicting 32 blocks.
func benchPredictor(q, k int) *core.Predictor {
	alpha := mat.Zeros(k, q)
	sel := make([]int, q)
	c := make([]float64, k)
	for i := 0; i < k; i++ {
		c[i] = 0.05
		for j := 0; j < q; j++ {
			alpha.Set(i, j, 1/float64(q)+0.001*float64(i-j))
		}
	}
	for j := range sel {
		sel[j] = 2 * j
	}
	return &core.Predictor{Selected: sel, Model: &ols.Model{Alpha: alpha, C: c}}
}

func benchmarkPredict(b *testing.B, batch int) {
	const q, k = 8, 32
	s, err := New(Config{
		Loader:  func() (*core.Predictor, error) { return benchPredictor(q, k), nil },
		Monitor: monitor.Config{Vth: 0.95},
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	readings := make([][]reading, batch)
	for i := range readings {
		row := make([]reading, q)
		for j := range row {
			row[j] = reading(0.9 + 0.001*float64(i+j))
		}
		readings[i] = row
	}
	body, err := json.Marshal(predictRequest{Readings: readings})
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	// Vectors per second is the serving throughput figure of merit.
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "vectors/s")
}

func BenchmarkPredictBatch1(b *testing.B)  { benchmarkPredict(b, 1) }
func BenchmarkPredictBatch64(b *testing.B) { benchmarkPredict(b, 64) }

// BenchmarkStreamCycle measures one monitored NDJSON cycle end to end.
func BenchmarkStreamCycle(b *testing.B) {
	const q, k = 8, 32
	s, err := New(Config{
		Loader:  func() (*core.Predictor, error) { return benchPredictor(q, k), nil },
		Monitor: monitor.Config{Vth: 0.95},
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	line := `{"readings":[0.99,0.99,0.99,0.99,0.99,0.99,0.99,0.99]}` + "\n"
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.WriteString(line)
	}
	b.ReportAllocs()
	b.ResetTimer()
	resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", &buf)
	if err != nil {
		b.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	b.StopTimer()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(out, []byte(fmt.Sprintf(`"cycles":%d`, b.N))) {
		b.Fatalf("stream failed: %d %s", resp.StatusCode, out)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// predictCodecFixture is the serve-predict request shape: a body of Q = 16
// readings and the K = 240 voltages a paper-sized model answers for it.
func predictCodecFixture(b *testing.B) (body []byte, out [][]float64) {
	const q, k = 16, 240
	pred := benchPredictor(q, k)
	x := make([]float64, q)
	for j := range x {
		x[j] = 0.9 + 0.0137*float64(j) - 0.00071*float64(j*j)
	}
	body, err := json.Marshal(map[string][][]float64{"readings": {x}})
	if err != nil {
		b.Fatal(err)
	}
	return body, [][]float64{pred.Predict(x)}
}

// BenchmarkEncodePredict appends a K = 240 /v1/predict answer into a reused
// buffer; BenchmarkEncodePredictStdlib writes the same bytes the way
// writeJSON does, through json.Encoder.
func BenchmarkEncodePredict(b *testing.B) {
	_, out := predictCodecFixture(b)
	prefix := predictPrefix("default", 1, len(out[0]))
	buf := appendPredictBody(nil, prefix, out)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendPredictBody(buf[:0], prefix, out)
	}
}

func BenchmarkEncodePredictStdlib(b *testing.B) {
	_, out := predictCodecFixture(b)
	resp := predictResponse{Tenant: "default", ModelGeneration: 1, Blocks: len(out[0]), Voltages: out}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(resp)
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		json.NewEncoder(&buf).Encode(resp)
	}
}

// BenchmarkDecodePredict decodes a Q = 16 /v1/predict body with the
// fixed-schema parser; BenchmarkDecodePredictStdlib decodes it with
// encoding/json alone, json.Decoder with a nested json.Unmarshal per
// reading, then copies the readings out as float64 rows.
func BenchmarkDecodePredict(b *testing.B) {
	body, _ := predictCodecFixture(b)
	cb := getCodecBuf()
	defer putCodecBuf(cb)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, rows, err := decodePredict(bytes.NewReader(body), cb); err != nil || len(rows) != 1 {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePredictStdlib(b *testing.B) {
	body, _ := predictCodecFixture(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req nestedPredictRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			b.Fatal(err)
		}
		rows := make([][]float64, len(req.Readings))
		for j, rv := range req.Readings {
			rows[j] = make([]float64, len(rv))
			for n, v := range rv {
				rows[j][n] = float64(v)
			}
		}
	}
}
