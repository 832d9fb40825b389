package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"

	"voltsense/internal/faults"
	"voltsense/internal/mat"
	"voltsense/internal/monitor"
	"voltsense/internal/online"
	"voltsense/internal/transfer"
)

// reading mirrors the server's request decoding: a JSON number, or null for
// a dropped-out sensor.
type reading float64

func (r *reading) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*r = reading(math.NaN())
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*r = reading(f)
	return nil
}

func floats(rs []reading) []float64 {
	out := make([]float64, len(rs))
	for i, v := range rs {
		out[i] = float64(v)
	}
	return out
}

type predictRequest struct {
	Tenant   string      `json:"tenant"`
	Readings [][]reading `json:"readings"`
}

type predictResponse struct {
	Tenant          string      `json:"tenant"`
	ModelGeneration uint64      `json:"model_generation"`
	Blocks          int         `json:"blocks"`
	Voltages        [][]float64 `json:"voltages"`
}

type streamIn struct {
	Cycle    *int      `json:"cycle"`
	Readings []reading `json:"readings"`
}

type streamVoltages struct {
	Cycle    int       `json:"cycle"`
	Voltages []float64 `json:"voltages"`
}

type labeledSample struct {
	Readings []reading `json:"readings"`
	Voltages []float64 `json:"voltages"`
}

type labeledRequest struct {
	Tenant  string          `json:"tenant"`
	Samples []labeledSample `json:"samples"`
}

// replayer re-runs each request's server-side stages through the layers'
// public calls after its real round trip, one span per stage, children of
// the round trip's span. Each client goroutine owns one, with its own fault
// guards, monitors and adapters, so replays never touch the live server's
// state except the registry reads and refreshes the serving path makes.
type replayer struct {
	tr       *tracer
	fl       *fleet
	parent   int32 // span the guard's primary route records under
	req      int64
	guards   map[string]*faults.Guard
	adapters map[string]*online.Adapter
	mon      *monitor.Monitor
	buf      bytes.Buffer
	scratch  string
}

func newReplayer(tr *tracer, fl *fleet, scratch string) *replayer {
	return &replayer{tr: tr, fl: fl, guards: map[string]*faults.Guard{}, adapters: map[string]*online.Adapter{}, scratch: scratch}
}

// guard returns the client's guard for a tenant, built as the server builds
// one, with a span around the primary Eq. 20 evaluation.
func (r *replayer) guard(tenant string) *faults.Guard {
	if g, ok := r.guards[tenant]; ok {
		return g
	}
	pred := r.fl.pred
	fb := pred.Fallbacks
	det, err := faults.NewDetector(fb.Stats, faults.DetectorConfig{})
	if err != nil {
		panic(err) // the server built the identical detector at load
	}
	primary := faults.Route{Predict: func(x []float64) []float64 {
		var out []float64
		r.tr.do(r.parent, "core.predict", r.req, func(int32) { out = pred.Predict(x) })
		return out
	}}
	g, err := faults.NewGuard(det, primary, func(faulty []int) (faults.Route, bool) {
		fm := fb.Lookup(faulty)
		if fm == nil {
			return faults.Route{}, false
		}
		return faults.Route{Predict: fm.PredictFull, Excluded: fm.Excluded}, true
	})
	if err != nil {
		panic(err)
	}
	r.guards[tenant] = g
	return g
}

// roundTrip records a client round trip and returns its span id.
func (r *replayer) roundTrip(req int64, start, end int64) int32 {
	r.req = req
	r.tr.add("serve.replayed", 1)
	return r.tr.record(0, "serve.roundtrip", req, start, end)
}

func (r *replayer) span(parent int32, name string, fn func()) {
	r.tr.do(parent, name, r.req, func(int32) { fn() })
}

// predict replays /v1/predict: decode, tenant lookup, guard with the Eq. 20
// evaluation, encode.
func (r *replayer) predict(rt int32, tenant string, body []byte) {
	var req predictRequest
	r.span(rt, "serve.decode", func() { json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
	r.span(rt, "registry.get", func() { r.fl.srv.Registry().Get(tenant) })
	out := make([][]float64, len(req.Readings))
	g := r.guard(tenant)
	for i, rv := range req.Readings {
		x := floats(rv)
		r.tr.do(rt, "faults.guard", r.req, func(id int32) {
			r.parent = id
			out[i], _ = g.Process(x)
		})
	}
	r.span(rt, "serve.encode", func() {
		r.buf.Reset()
		json.NewEncoder(&r.buf).Encode(predictResponse{Tenant: tenant, Blocks: r.fl.fit.blocks, Voltages: out})
	})
}

// startSession gives a replayed stream its own monitor, as the server takes
// one from its pool per session.
func (r *replayer) startSession() {
	r.mon, _ = monitor.New(r.fl.pred, r.fl.fit.blocks, monitor.Config{Vth: r.fl.fit.vth, ClearMargin: 0.02, ClearCycles: 2}, nil)
}

// cycle replays one /v1/stream cycle: decode the line, guard with the Eq. 20
// evaluation, the monitor state machine, encode the voltages line.
func (r *replayer) cycle(rt int32, tenant string, cycle int, line []byte) {
	var in streamIn
	r.span(rt, "serve.decode", func() { json.Unmarshal(line, &in) })
	x := floats(in.Readings)
	var f []float64
	g := r.guard(tenant)
	r.tr.do(rt, "faults.guard", r.req, func(id int32) {
		r.parent = id
		f, _ = g.Process(x)
	})
	if f == nil {
		return
	}
	r.span(rt, "monitor.process", func() { r.mon.ProcessPredicted(cycle, f) })
	r.span(rt, "serve.encode", func() {
		r.buf.Reset()
		json.NewEncoder(&r.buf).Encode(streamVoltages{Cycle: cycle, Voltages: f})
	})
}

// feedback replays /v1/feedback: decode, tenant lookup, the online
// adapter's ingest per sample.
func (r *replayer) feedback(rt int32, tenant string, body []byte) {
	var req labeledRequest
	r.span(rt, "serve.decode", func() { json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
	r.span(rt, "registry.get", func() { r.fl.srv.Registry().Get(tenant) })
	ad, ok := r.adapters[tenant]
	if !ok {
		ad, _ = online.NewAdapter(r.fl.pred, online.Config{Vth: r.fl.fit.vth}, nil)
		r.adapters[tenant] = ad
	}
	for _, s := range req.Samples {
		x := floats(s.Readings)
		r.span(rt, "online.ingest", func() { ad.Ingest(x, s.Voltages) })
	}
}

// calibrate replays /v1/calibrate: decode, the MAP alignment against the
// golden prior, the thin delta and its artifact write, and the registry
// refresh that hot-loads it.
func (r *replayer) calibrate(rt int32, tenant string, body []byte) {
	var req labeledRequest
	r.span(rt, "serve.decode", func() { json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
	prior := r.fl.fit.prior
	x, f := mat.Zeros(prior.Q(), len(req.Samples)), mat.Zeros(prior.K(), len(req.Samples))
	for i, s := range req.Samples {
		x.SetCol(i, floats(s.Readings))
		f.SetCol(i, s.Voltages)
	}
	var al *transfer.Alignment
	var err error
	r.span(rt, "transfer.align", func() { al, err = transfer.AlignChip(prior, x, f, transfer.AlignConfig{}) })
	if err != nil {
		return
	}
	r.span(rt, "transfer.delta", func() {
		fh, err := os.Create(filepath.Join(r.scratch, "replay-delta.json"))
		if err != nil {
			return
		}
		transfer.SaveDelta(fh, al.Delta, al.Predictor.Lineage)
		fh.Close()
	})
	r.span(rt, "registry.refresh", func() { r.fl.srv.Registry().Refresh(tenant) })
}
