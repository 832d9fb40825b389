package main

import (
	"bytes"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// loadResult is one load phase's outcome.
type loadResult struct {
	lat      []float64 // ms per request, from when it was due; +Inf when it failed
	lags     []float64 // µs the generator started a request after it could have
	done     []float64 // closed loop: s from the phase start to each request's end
	failed   int       // transport errors, non-200 answers and wrong answers
	mismatch int       // wrong answers among failed
	elapsed  time.Duration
	dur      time.Duration // the phase's scheduled length
}

// tally adds a load phase's requests to the run's totals.
func (o *outcome) tally(lr *loadResult) {
	o.attempted += len(lr.lat)
	o.failed += lr.failed
	if lr.mismatch > 0 {
		o.fail("%d answers differ from the local predictor", lr.mismatch)
	}
}

func (lr *loadResult) merge(o *loadResult) {
	lr.lat = append(lr.lat, o.lat...)
	lr.lags = append(lr.lags, o.lags...)
	lr.done = append(lr.done, o.done...)
	lr.failed += o.failed
	lr.mismatch += o.mismatch
}

func (lr *loadResult) pct(q float64) float64 { return rank(sortedCopy(lr.lat), q) }

// meets is the rate-search criterion: nothing failed, the windowed p99
// within the limit, and the phase drained on schedule (no growing backlog).
func (lr *loadResult) meets(limit time.Duration, per int) bool {
	return lr.failed == 0 && windowed(lr.lat, per, 0.99) <= float64(limit)/1e6 &&
		lr.elapsed <= lr.dur+lr.dur/20+limit
}

// latePct is the share of requests the generator started more than 1 ms
// after it could have — the open-loop validity figure.
func (lr *loadResult) latePct() float64 {
	late := 0
	for _, l := range lr.lags {
		if l > 1000 {
			late++
		}
	}
	return 100 * float64(late) / float64(max(len(lr.lags), 1))
}

// predictOnce sends request i of a phase and checks the answer. With a
// replayer it also records the round trip and replays it.
func (fl *fleet) predictOnce(i int, buf *bytes.Buffer, rp *replayer) (ok, mismatch bool) {
	s := &fl.samples[i%len(fl.samples)]
	tenant := fl.tenants[i%len(fl.tenants)]
	var start int64
	if rp != nil {
		start = rp.tr.now()
	}
	code, err := fl.post("/v1/predict", tenant, s.body, buf)
	if rp != nil {
		rt := rp.roundTrip(int64(i), start, rp.tr.now())
		rp.predict(rt, tenant, s.body)
	}
	if err != nil || code != http.StatusOK {
		return false, false
	}
	if !fl.checkPredict(tenant, s, buf.Bytes()) {
		return false, true
	}
	return true, false
}

// openLoop offers rate requests per second for dur: request i is due at
// start + i/rate whether or not earlier ones finished, and is timed from
// then. clients goroutines, each on its own connection, send them in order.
// first offsets the sample and tenant rotation.
//
// Latencies are stored in due order, so windowed can cut the phase into
// time windows.
func (fl *fleet) openLoop(rate float64, dur time.Duration, clients, first int, reps []*replayer) *loadResult {
	n := int(rate * dur.Seconds())
	period := float64(time.Second) / rate
	out := &loadResult{lat: make([]float64, n), lags: make([]float64, n), dur: dur}
	var next atomic.Int64
	var failed, mismatch atomic.Int64
	t0 := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			var rp *replayer
			if reps != nil {
				rp = reps[w]
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(float64(i) * period))
				ready := time.Now()
				waitUntil(due)
				out.lags[i] = float64(time.Since(later(due, ready))) / 1e3
				ok, bad := fl.predictOnce(first+i, &buf, rp)
				out.lat[i] = float64(time.Since(due)) / 1e6
				if !ok {
					out.lat[i] = math.Inf(1)
					failed.Add(1)
					if bad {
						mismatch.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	out.elapsed = time.Since(t0)
	out.failed, out.mismatch = int(failed.Load()), int(mismatch.Load())
	return out
}

// waitUntil returns at t. The runtime's timers wake idle processors with
// millisecond granularity, far coarser than the gaps between requests, so
// the last 2 ms are spent yielding to other goroutines instead of asleep.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// closedLoop has clients goroutines send back-to-back predictions for dur
// and returns the completion rate of each statWindow: the capacity with that
// many callers, and an upper bound for the rate search.
func (fl *fleet) closedLoop(dur time.Duration, clients, first int) ([]float64, *loadResult) {
	var next atomic.Int64
	parts := make([]*loadResult, clients)
	t0 := time.Now()
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lr := &loadResult{}
			parts[w] = lr
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				s := time.Now()
				ok, bad := fl.predictOnce(first+i, &buf, nil)
				end := time.Now()
				lat := float64(end.Sub(s)) / 1e6
				if !ok {
					lat = math.Inf(1)
					lr.failed++
					if bad {
						lr.mismatch++
					}
				}
				lr.lat = append(lr.lat, lat)
				lr.done = append(lr.done, end.Sub(t0).Seconds())
			}
		}(w)
	}
	wg.Wait()
	out := &loadResult{elapsed: time.Since(t0), dur: dur}
	for _, p := range parts {
		out.merge(p)
	}
	return windowRates(out.done, out.elapsed.Seconds(), statWindow.Seconds()), out
}

// runServePredict is the serve-predict workload: two thirds of the budget
// alternating between the fixed offered rate and the closed loop, and the
// rest searching for the highest offered rate whose windowed p99 meets the
// limit.
func runServePredict(rc runConfig) (*outcome, error) {
	out := &outcome{e2e: metrics{}, layer: metrics{}, detail: metrics{}}
	sc := rc.sc
	if rc.trace {
		return out, tracePredict(rc, out)
	}
	fl, setup, err := setupFleet(rc, false, nil)
	if err != nil {
		return nil, err
	}
	defer fl.close()
	out.e2e.set("setup_s", "s", setup)

	budget := time.Duration(rc.seconds * float64(time.Second))
	deadline := time.Now().Add(budget)
	sent := 0 // requests so far: the next phase's offset in the sample rotation
	tally := func(lr *loadResult) {
		out.tally(lr)
		sent += len(lr.lat)
	}

	// The fixed rate and the closed loop alternate in chunks of about a
	// second, so that both figures are medians over windows spread across
	// the same stretch of the run: the shared host's speed drifts by a fifth
	// within a few seconds, and a figure measured in one block of the run
	// would follow that drift.
	span := budget * 2 / 3
	pairs := max(int(span/(2*time.Second)), 1)
	chunk := span / time.Duration(2*pairs)
	fixed, closed := &loadResult{}, &loadResult{}
	var capRates []float64
	for i := 0; i < pairs; i++ {
		rc.probe.sample()
		lr := fl.openLoop(sc.rate, chunk, sc.clients, sent, nil)
		tally(lr)
		fixed.merge(lr)
		fixed.dur += lr.dur
		fixed.elapsed += lr.elapsed
		rates, cl := fl.closedLoop(chunk, sc.clients, sent)
		tally(cl)
		closed.merge(cl)
		capRates = append(capRates, rates...)
	}
	rc.probe.sample()

	// The tail reported for the contract is p90 from due: on a shared
	// two-core machine the open-loop p99 moved between runs of the same code
	// two to three times as much as p90 did. The header keeps the p99.
	per := window(sc.rate)
	p50, p90, p99 := windowed(fixed.lat, per, 0.50), windowed(fixed.lat, per, 0.90), windowed(fixed.lat, per, 0.99)
	out.e2e.set("op_p50_ms", "ms", p50)
	out.e2e.set("op_tail_ms", "ms", p90)
	out.detail.set("predict_p50_us", "us", p50*1e3)
	out.detail.set("predict_p90_us", "us", p90*1e3)
	out.detail.set("predict_p99_us", "us", p99*1e3)
	out.detail.set("predict_requests", "count", float64(len(fixed.lat)))
	lag := rank(sortedCopy(fixed.lags), 0.99)
	out.detail.set("loadgen_lag_p99_us", "us", lag)
	out.detail.set("loadgen_late_pct", "%", fixed.latePct())
	if lag > 1000 {
		out.notes = append(out.notes, "invalid: generator lag p99 above 1000 us")
	}

	capRate := median(capRates)
	out.e2e.set("rate_per_s", "1/s", capRate)
	out.detail.set("closed_loop_rps", "1/s", capRate)
	out.detail.set("closed_loop_p99_us", "us", closed.pct(0.99)*1e3)

	// Bisect upward between the fixed rate, when it met the limit, and a
	// rate just past the capacity. Below the fixed rate the p99 is not
	// monotone in the rate on a virtual machine: once the processors go idle
	// between requests, waking them costs up to milliseconds. So a fixed rate
	// that misses the limit reports 0 rather than searching down.
	if !fixed.meets(sc.limit, per) {
		out.notes = append(out.notes, "the fixed rate misses the p99 limit, so predict_max_rps is 0")
		out.detail.set("predict_max_rps", "1/s", 0)
		return out, nil
	}
	lo, hi := sc.rate, max(capRate, sc.rate)*1.02
	probes := int(math.Ceil(math.Log2((hi - lo) / (sc.resolution * hi))))
	probeDur := max(time.Until(deadline)/time.Duration(max(probes, 1)), 500*time.Millisecond)
	n := 0
	for hi-lo > sc.resolution*hi && time.Until(deadline) > probeDur/2 {
		mid := (lo + hi) / 2
		lr := fl.openLoop(mid, probeDur, sc.clients, sent, nil)
		tally(lr)
		if lr.meets(sc.limit, window(mid)) {
			lo = mid
		} else {
			hi = mid
		}
		n++
	}
	out.detail.set("predict_max_rps", "1/s", lo)
	out.detail.set("rate_probes", "count", float64(n))
	return out, nil
}

// statWindow is the length of the windows whose median the serving
// workloads report.
const statWindow = 250 * time.Millisecond

// window is the number of requests in one statWindow at rate.
func window(rate float64) int { return max(int(rate*statWindow.Seconds()), 1) }

// tracePredict sets up traced, then offers the fixed rate twice — traced,
// with every request replayed, then untraced — and reports the per-layer
// breakdown and the tracing overhead on the median latency.
func tracePredict(rc runConfig, out *outcome) error {
	sc := rc.sc
	tr := newTracer()
	out.tracer = tr
	fl, _, err := setupFleet(rc, false, tr)
	if err != nil {
		return err
	}
	defer fl.close()
	half := time.Duration(rc.seconds * float64(time.Second) / 2)
	reps := make([]*replayer, sc.clients)
	for i := range reps {
		reps[i] = newReplayer(tr, fl, rc.work)
	}
	traced := fl.openLoop(sc.rate, half, sc.clients, 0, reps)
	wall := time.Since(tr.t0)
	before := memNow()
	plain := fl.openLoop(sc.rate, half, sc.clients, len(traced.lat), nil)
	runtimeMetrics(out.layer, before, len(plain.lat))
	out.tally(traced)
	out.tally(plain)
	lt := layerMetrics(out.layer, tr, wall)
	t50, u50 := traced.pct(0.5), plain.pct(0.5)
	out.layer.set("trace.overhead_pct", "%", 100*(t50-u50)/u50)
	out.layer.set("loadgen.late_pct", "%", plain.latePct())
	spanDetail(out.detail, lt)
	out.detail.set("predict_p50_traced_us", "us", t50*1e3)
	out.detail.set("predict_p50_untraced_us", "us", u50*1e3)
	return nil
}
