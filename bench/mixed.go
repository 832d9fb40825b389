package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"voltsense/internal/serve"
)

// mixedResult is one closed-loop mixed phase: per-operation latencies in
// ms, in the order the operations ran.
type mixedResult struct {
	predict, feedback, calibrate, cycle []float64
	failed, mismatch                    int
	problems                            []string
	start                               time.Time
	done                                []float64 // s from start to each successful operation's end
	elapsed                             time.Duration
}

func (m *mixedResult) ops() int {
	return len(m.predict) + len(m.feedback) + len(m.calibrate) + len(m.cycle)
}

// add appends a later phase's operations, as if it had run right after m.
func (m *mixedResult) add(o *mixedResult) {
	m.predict = append(m.predict, o.predict...)
	m.feedback = append(m.feedback, o.feedback...)
	m.calibrate = append(m.calibrate, o.calibrate...)
	m.cycle = append(m.cycle, o.cycle...)
	m.failed += o.failed
	m.mismatch += o.mismatch
	m.problems = append(m.problems, o.problems...)
	for _, d := range o.done {
		m.done = append(m.done, m.elapsed.Seconds()+d)
	}
	m.elapsed += o.elapsed
}

// mixed runs the two closed-loop clients for dur: client A streams NDJSON
// sessions of sc.cycles cycles, rotating tenants; client B sends a unary mix
// of 80% predictions (all tenants), 18% single-sample feedback and 2%
// few-shot calibrations (write tenants only). reps, when non-nil, replays
// every operation under the tracer.
func (fl *fleet) mixed(dur time.Duration, sc scale, seed int64, first int, reps []*replayer) *mixedResult {
	deadline := time.Now().Add(dur)
	var writers []string
	for _, id := range fl.tenants {
		if !fl.readOnly[id] {
			writers = append(writers, id)
		}
	}
	rp := func(i int) *replayer {
		if reps == nil {
			return nil
		}
		return reps[i%len(reps)]
	}
	t0 := time.Now()
	a, b := mixedResult{start: t0}, mixedResult{start: t0}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for s := 0; time.Now().Before(deadline); s++ {
			tenant := fl.tenants[s%len(fl.tenants)]
			if err := fl.session(tenant, sc.cycles, first+s*sc.cycles, &a, rp(0)); err != nil {
				a.failed++
				a.problems = append(a.problems, fmt.Sprintf("stream on %s: %v", tenant, err))
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		var np, nf, nc int
		for time.Now().Before(deadline) {
			u := rng.Float64()
			switch {
			case u < 0.80:
				i := first + np
				np++
				t := time.Now()
				ok, bad := fl.predictOnce(i, &buf, rp(1))
				b.record(&b.predict, t, ok, bad)
			case u < 0.98:
				s := &fl.samples[(first+nf)%len(fl.samples)]
				tenant := writers[nf%len(writers)]
				nf++
				t := time.Now()
				ok := fl.write("/v1/feedback", tenant, s.fb, &buf, 1, rp(1))
				b.record(&b.feedback, t, ok, false)
			default:
				tenant := writers[nc%len(writers)]
				body, err := labeledBody(fl.samples, first+nc*sc.calSamples, sc.calSamples)
				nc++
				if err != nil {
					b.failed++
					continue
				}
				t := time.Now()
				ok := fl.write("/v1/calibrate", tenant, body, &buf, sc.calSamples, rp(1))
				b.record(&b.calibrate, t, ok, false)
			}
		}
	}()
	wg.Wait()
	out := &mixedResult{
		predict: b.predict, feedback: b.feedback, calibrate: b.calibrate, cycle: a.cycle,
		failed: a.failed + b.failed, mismatch: a.mismatch + b.mismatch,
		problems: append(a.problems, b.problems...), done: append(a.done, b.done...),
		elapsed: time.Since(t0),
	}
	return out
}

// rate is the phase's windowed rate of successful operations per second.
func (m *mixedResult) rate() float64 {
	return median(windowRates(m.done, m.elapsed.Seconds(), statWindow.Seconds()))
}

// cycleStats returns the stream cycles' windowed p50 and tail latencies,
// in windows of about one statWindow of cycles, and the tail's level.
func (m *mixedResult) cycleStats() (p50, tl, lvl float64) {
	per := max(int(float64(len(m.cycle))*statWindow.Seconds()/m.elapsed.Seconds()), 1)
	lvl = tailLevel(per)
	return windowed(m.cycle, per, 0.5), windowed(m.cycle, per, lvl), lvl
}

// record files one operation's latency, or its failure.
func (m *mixedResult) record(into *[]float64, t0 time.Time, ok, mismatch bool) {
	if !ok {
		m.failed++
		if mismatch {
			m.mismatch++
		}
		return
	}
	end := time.Now()
	*into = append(*into, float64(end.Sub(t0))/1e6)
	m.done = append(m.done, end.Sub(m.start).Seconds())
}

// write sends one feedback or calibrate request and checks that the server
// accepted it: a 200 whose body accounts for all n samples (accepted, or
// skipped while a sensor is diagnosed faulty).
func (fl *fleet) write(path, tenant string, body []byte, buf *bytes.Buffer, n int, rp *replayer) bool {
	var start int64
	if rp != nil {
		start = rp.tr.now()
	}
	code, err := fl.post(path, tenant, body, buf)
	if rp != nil {
		rt := rp.roundTrip(0, start, rp.tr.now())
		if path == "/v1/calibrate" {
			rp.calibrate(rt, tenant, body)
		} else {
			rp.feedback(rt, tenant, body)
		}
	}
	if err != nil || code != http.StatusOK {
		return false
	}
	var resp struct {
		Accepted int `json:"accepted"`
		Skipped  int `json:"skipped"`
	}
	return json.Unmarshal(buf.Bytes(), &resp) == nil && resp.Accepted+resp.Skipped == n
}

// session runs one NDJSON stream: cycles lines in, each answered by a
// voltages line checked like a prediction, timed from write to answer.
func (fl *fleet) session(tenant string, cycles, first int, m *mixedResult, rp *replayer) error {
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, fl.target.BaseURL+"/v1/stream?emit_voltages=true", pr)
	if err != nil {
		return err
	}
	req.Header.Set(serve.TenantHeader, tenant)
	resp, err := fl.target.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if rp != nil {
		rp.startSession()
	}
	br := bufio.NewReader(resp.Body)
	for c := 0; c < cycles; c++ {
		s := &fl.samples[(first+c)%len(fl.samples)]
		var start int64
		if rp != nil {
			start = rp.tr.now()
		}
		t0 := time.Now()
		if _, err := pw.Write(s.line); err != nil {
			return err
		}
		line, err := voltagesLine(br)
		if err != nil {
			return err
		}
		ok := fl.checkCycle(tenant, c, s, line)
		m.record(&m.cycle, t0, ok, !ok)
		if rp != nil {
			rt := rp.roundTrip(0, start, rp.tr.now())
			rp.cycle(rt, tenant, c, s.line)
		}
	}
	pw.Close() // end of input: the server answers with its summary
	_, err = io.Copy(io.Discard, br)
	return err
}

// voltagesLine reads NDJSON lines until the cycle's voltages line; alarm
// event lines in between are skipped.
func voltagesLine(br *bufio.Reader) ([]byte, error) {
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return nil, err
		}
		if bytes.Contains(line, []byte(`"voltages":`)) {
			return line, nil
		}
		if bytes.HasPrefix(line, []byte(`{"error"`)) {
			return nil, fmt.Errorf("server ended the session: %s", bytes.TrimSpace(line))
		}
	}
}

// checkCycle validates a voltages line like checkPredict validates a
// prediction.
func (fl *fleet) checkCycle(tenant string, cycle int, s *sample, line []byte) bool {
	if fl.readOnly[tenant] {
		pre := `{"cycle":` + strconv.Itoa(cycle) + `,"voltages":`
		return bytes.Equal(line, append(append([]byte(pre), s.want...), "}\n"...))
	}
	var v struct {
		Voltages []float64 `json:"voltages"`
	}
	return json.Unmarshal(line, &v) == nil && fl.inRange(v.Voltages)
}

// runServeMixed is the serve-mixed workload.
func runServeMixed(rc runConfig) (*outcome, error) {
	out := &outcome{e2e: metrics{}, layer: metrics{}, detail: metrics{}}
	if rc.trace {
		return out, traceMixed(rc, out)
	}
	fl, setup, err := setupFleet(rc, true, nil)
	if err != nil {
		return nil, err
	}
	defer fl.close()
	out.e2e.set("setup_s", "s", setup)
	// The phase runs in segments of about a second with the speed probe
	// between them, so that the probe samples the machine across the phase.
	segs := max(int(rc.seconds), 1)
	seg := time.Duration(rc.seconds*float64(time.Second)) / time.Duration(segs)
	seeds := rand.New(rand.NewSource(rc.seed))
	res := &mixedResult{}
	for i := 0; i < segs; i++ {
		rc.probe.sample()
		res.add(fl.mixed(seg, rc.sc, seeds.Int63(), res.ops(), nil))
	}
	rc.probe.sample()
	tallyMixed(out, res)
	p50, ct, lvl := res.cycleStats()
	out.e2e.set("op_p50_ms", "ms", p50)
	out.e2e.set("op_tail_ms", "ms", ct)
	out.e2e.set("rate_per_s", "1/s", res.rate())
	out.detail.set("stream_cycle_p50_us", "us", p50*1e3)
	out.detail.set("stream_cycle_p99_us", "us", ct*1e3)
	out.detail.set("stream_cycle_tail_level", "frac", lvl)
	pt, _ := tail(res.predict)
	ft, _ := tail(res.feedback)
	cal, lvl := tail(res.calibrate)
	out.detail.set("mixed_predict_p99_us", "us", pt*1e3)
	out.detail.set("feedback_p99_us", "us", ft*1e3)
	out.detail.set("calibrate_p90_ms", "ms", cal)
	out.detail.set("calibrate_tail_level", "frac", lvl)
	for name, xs := range map[string][]float64{"cycles": res.cycle, "predicts": res.predict, "feedbacks": res.feedback, "calibrates": res.calibrate} {
		out.detail.set(name, "count", float64(len(xs)))
	}
	return out, nil
}

func tallyMixed(out *outcome, res *mixedResult) {
	out.attempted += res.ops() + res.failed
	out.failed += res.failed
	if res.mismatch > 0 {
		out.fail("%d answers differ from the expected voltages", res.mismatch)
	}
	for i, p := range res.problems {
		if i == 5 {
			out.fail("... %d more", len(res.problems)-5)
			break
		}
		out.fail("%s", p)
	}
}

// traceMixed sets up traced, runs the mix traced with every operation
// replayed, then untraced, and reports the per-layer breakdown and the
// tracing overhead on the median stream cycle.
func traceMixed(rc runConfig, out *outcome) error {
	sc := rc.sc
	tr := newTracer()
	out.tracer = tr
	fl, _, err := setupFleet(rc, true, tr)
	if err != nil {
		return err
	}
	defer fl.close()
	half := time.Duration(rc.seconds * float64(time.Second) / 2)
	reps := []*replayer{newReplayer(tr, fl, rc.work), newReplayer(tr, fl, rc.work)}
	traced := fl.mixed(half, sc, rc.seed, 0, reps)
	wall := time.Since(tr.t0)
	before := memNow()
	plain := fl.mixed(half, sc, rc.seed+1, traced.ops(), nil)
	runtimeMetrics(out.layer, before, plain.ops())
	tallyMixed(out, traced)
	tallyMixed(out, plain)
	lt := layerMetrics(out.layer, tr, wall)
	t50, u50 := rank(sortedCopy(traced.cycle), 0.5), rank(sortedCopy(plain.cycle), 0.5)
	out.layer.set("trace.overhead_pct", "%", 100*(t50-u50)/u50)
	spanDetail(out.detail, lt)
	out.detail.set("stream_cycle_p50_traced_us", "us", t50*1e3)
	out.detail.set("stream_cycle_p50_untraced_us", "us", u50*1e3)
	return nil
}
