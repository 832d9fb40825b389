package serve

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer metric.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an instantaneous float64 metric, stored atomically via its
// IEEE bit pattern so readers never observe a torn value.
type FloatGauge struct{ v atomic.Uint64 }

// Set replaces the value.
func (g *FloatGauge) Set(f float64) { g.v.Store(math.Float64bits(f)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// latencyBuckets are the histogram upper bounds in seconds, spanning the
// sub-millisecond Eq. 20 evaluations up to pathological multi-second stalls.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64 // cumulative, one per latencyBuckets entry
	sum    float64
	count  uint64
}

// Observe records one latency sample in seconds.
func (h *Histogram) Observe(seconds float64) {
	h.mu.Lock()
	if h.counts == nil {
		h.counts = make([]uint64, len(latencyBuckets))
	}
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			h.counts[i]++
		}
	}
	h.sum += seconds
	h.count++
	h.mu.Unlock()
}

// snapshot returns a consistent copy for exposition.
func (h *Histogram) snapshot() (counts []uint64, sum float64, count uint64) {
	h.mu.Lock()
	counts = make([]uint64, len(latencyBuckets))
	copy(counts, h.counts)
	sum, count = h.sum, h.count
	h.mu.Unlock()
	return
}

// TenantMetrics holds one tenant's monotone counters. Counter families are
// label-bounded by construction: the registry folds a tenant's counts into
// the `_retired` aggregate when it leaves the cache (RetireTenant), so the
// exposition's tenant label set never outgrows the resident fleet.
type TenantMetrics struct {
	mu          sync.Mutex
	predictions map[uint64]*Counter // model generation → vectors evaluated
	shed        map[string]*Counter // shed reason → count

	StreamsTotal     Counter // streaming sessions ever opened on this tenant
	DegradedRequests Counter // requests refused or streams ended degraded
}

// AddPredictions counts n evaluated sensor vectors against the given model
// generation, so promotions and reloads are visible in scrape deltas.
func (t *TenantMetrics) AddPredictions(gen uint64, n uint64) {
	t.mu.Lock()
	c := t.predictions[gen]
	if c == nil {
		c = &Counter{}
		t.predictions[gen] = c
	}
	t.mu.Unlock()
	c.Add(n)
}

// Shed returns the counter for one shed reason (see the shedReasons set).
func (t *TenantMetrics) Shed(reason string) *Counter {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.shed[reason]
	if c == nil {
		c = &Counter{}
		t.shed[reason] = c
	}
	return c
}

// predictionsSnapshot returns the per-generation counts in generation order.
func (t *TenantMetrics) predictionsSnapshot() ([]uint64, map[uint64]uint64) {
	t.mu.Lock()
	gens := make([]uint64, 0, len(t.predictions))
	vals := make(map[uint64]uint64, len(t.predictions))
	for g, c := range t.predictions {
		gens = append(gens, g)
		vals[g] = c.Value()
	}
	t.mu.Unlock()
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, vals
}

// shedSnapshot returns the per-reason shed counts.
func (t *TenantMetrics) shedSnapshot() map[string]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]uint64, len(t.shed))
	for reason, c := range t.shed {
		out[reason] = c.Value()
	}
	return out
}

// predictionsTotal sums evaluated vectors across generations.
func (t *TenantMetrics) predictionsTotal() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, c := range t.predictions {
		n += c.Value()
	}
	return n
}

// TenantSnapshot is one tenant's instantaneous state, collected at scrape
// time so gauge cardinality always equals the resident tenant set.
type TenantSnapshot struct {
	ID            string
	Generation    uint64
	ActiveStreams int64
	FaultySensors int
	Degraded      bool
}

// retiredTenant is the label value aggregating counters of tenants that
// left the registry (eviction, removal, or artifact swap).
const retiredTenant = "_retired"

// Metrics is the server's dependency-free metric registry. It exposes the
// Prometheus text format (version 0.0.4) without importing any client
// library, per the repo's stdlib-only rule.
type Metrics struct {
	mu       sync.Mutex
	requests map[string]*Counter   // "path\x00code" → count
	latency  map[string]*Histogram // path → latency histogram
	tenants  map[string]*TenantMetrics
	version  string // build version for voltsense_build_info

	// Folded counts of retired tenants keep the totals monotone while the
	// per-tenant series disappear with their tenant.
	retiredPredictions Counter
	retiredStreams     Counter
	retiredDegraded    Counter
	retiredShed        map[string]*Counter

	// snapshotFn supplies the scrape-time per-tenant gauges; admissionFn
	// supplies the admission-queue gauges. Both are set by the server.
	snapshotFn  func() []TenantSnapshot
	admissionFn func() (inflight, queued int64)

	ActiveStreams Gauge   // streaming sessions currently open
	StreamsTotal  Counter // streaming sessions ever opened
	AlarmsRaised  Counter // cumulative raise events across all streams
	AlarmsCleared Counter // cumulative clear events across all streams
	Reloads       Counter // successful model hot-swaps

	FaultySensors    Gauge   // sensors currently diagnosed faulty
	ActiveFallback   Gauge   // sensors excluded by the serving fallback (0 = primary model)
	FallbackSwitches Counter // fault-tier state changes (diagnoses and switches)
	DegradedRequests Counter // requests refused or sessions ended in degraded mode

	ModelGeneration   Gauge      // generation of the predictor currently serving
	Promotions        Counter    // shadow models promoted to live
	Rollbacks         Counter    // operator rollbacks to the previous generation
	PromotionsBlocked Counter    // promotion attempts refused (degraded, faulty, stale)
	FeedbackSamples   Counter    // labeled samples accepted into the adaptation loop
	FeedbackSkipped   Counter    // labeled samples dropped (faulty sensors, bad values)
	DriftScore        FloatGauge // live-model residual sigmas above its baseline
	LiveTE            FloatGauge // live-model total error over the evaluation window
	ShadowTE          FloatGauge // shadow-model total error over the evaluation window

	Shed            Counter // requests/streams shed by overload control, all tenants
	TenantLoads     Counter // tenant runtimes built (cold loads and rescan swaps)
	TenantEvictions Counter // tenants retired by LRU capacity, idle TTL, or removal

	TransferCalibrations Counter // /v1/calibrate alignments completed
	TransferPriorOnly    Counter // calibrations held at the prior mean by the evidence gate
	TransferSamples      Counter // labeled samples consumed by calibrations
	TransferDeltaLoads   Counter // thin delta artifacts resolved against the pinned prior
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:    make(map[string]*Counter),
		latency:     make(map[string]*Histogram),
		tenants:     make(map[string]*TenantMetrics),
		retiredShed: make(map[string]*Counter),
		version:     "dev",
	}
}

// Tenant returns (creating if needed) the counter set for one tenant id.
func (m *Metrics) Tenant(id string) *TenantMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tenants[id]
	if t == nil {
		t = &TenantMetrics{
			predictions: make(map[uint64]*Counter),
			shed:        make(map[string]*Counter),
		}
		m.tenants[id] = t
	}
	return t
}

// RetireTenant folds a departed tenant's counters into the `_retired`
// aggregate and drops its per-tenant series, keeping label cardinality
// bounded by the resident fleet while totals stay monotone.
func (m *Metrics) RetireTenant(id string) {
	m.mu.Lock()
	t := m.tenants[id]
	delete(m.tenants, id)
	m.mu.Unlock()
	if t == nil {
		return
	}
	m.retiredPredictions.Add(t.predictionsTotal())
	m.retiredStreams.Add(t.StreamsTotal.Value())
	m.retiredDegraded.Add(t.DegradedRequests.Value())
	t.mu.Lock()
	shed := make(map[string]uint64, len(t.shed))
	for reason, c := range t.shed {
		shed[reason] = c.Value()
	}
	t.mu.Unlock()
	m.mu.Lock()
	for reason, n := range shed {
		c := m.retiredShed[reason]
		if c == nil {
			c = &Counter{}
			m.retiredShed[reason] = c
		}
		c.Add(n)
	}
	m.mu.Unlock()
}

// TenantLabelCount reports how many tenant ids currently carry counter
// series (the cardinality-bound invariant checked by tests).
func (m *Metrics) TenantLabelCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tenants)
}

// SetTenantSnapshotFunc installs the scrape-time source of per-tenant
// gauges (resident tenants only).
func (m *Metrics) SetTenantSnapshotFunc(fn func() []TenantSnapshot) {
	m.mu.Lock()
	m.snapshotFn = fn
	m.mu.Unlock()
}

// SetAdmissionStatsFunc installs the scrape-time source of the admission
// queue gauges.
func (m *Metrics) SetAdmissionStatsFunc(fn func() (inflight, queued int64)) {
	m.mu.Lock()
	m.admissionFn = fn
	m.mu.Unlock()
}

// SetVersion records the build version exposed by voltsense_build_info.
func (m *Metrics) SetVersion(v string) {
	m.mu.Lock()
	if v != "" {
		m.version = v
	}
	m.mu.Unlock()
}

// PredictionsTotal sums evaluated vectors across all tenants and
// generations, including retired tenants.
func (m *Metrics) PredictionsTotal() uint64 {
	m.mu.Lock()
	tenants := make([]*TenantMetrics, 0, len(m.tenants))
	for _, t := range m.tenants {
		tenants = append(tenants, t)
	}
	m.mu.Unlock()
	total := m.retiredPredictions.Value()
	for _, t := range tenants {
		total += t.predictionsTotal()
	}
	return total
}

// ObserveRequest records one completed HTTP request.
func (m *Metrics) ObserveRequest(path string, code int, d time.Duration) {
	key := path + "\x00" + strconv.Itoa(code)
	m.mu.Lock()
	c := m.requests[key]
	if c == nil {
		c = &Counter{}
		m.requests[key] = c
	}
	h := m.latency[path]
	if h == nil {
		h = &Histogram{}
		m.latency[path] = h
	}
	m.mu.Unlock()
	c.Inc()
	h.Observe(d.Seconds())
}

// WritePrometheus writes the registry in Prometheus text exposition format,
// with series in deterministic order. Every metric family — including
// multi-series families like the generation-labeled prediction counter —
// gets exactly one # HELP and one # TYPE line ahead of its samples.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	reqKeys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	latKeys := make([]string, 0, len(m.latency))
	for k := range m.latency {
		latKeys = append(latKeys, k)
	}
	reqs := make(map[string]*Counter, len(m.requests))
	for k, v := range m.requests {
		reqs[k] = v
	}
	lats := make(map[string]*Histogram, len(m.latency))
	for k, v := range m.latency {
		lats[k] = v
	}
	tenantIDs := make([]string, 0, len(m.tenants))
	for id := range m.tenants {
		tenantIDs = append(tenantIDs, id)
	}
	tenants := make(map[string]*TenantMetrics, len(m.tenants))
	for id, t := range m.tenants {
		tenants[id] = t
	}
	retiredShed := make(map[string]uint64, len(m.retiredShed))
	for reason, c := range m.retiredShed {
		retiredShed[reason] = c.Value()
	}
	snapshotFn, admissionFn := m.snapshotFn, m.admissionFn
	version := m.version
	m.mu.Unlock()
	sort.Strings(reqKeys)
	sort.Strings(latKeys)
	sort.Strings(tenantIDs)
	var snaps []TenantSnapshot
	if snapshotFn != nil {
		snaps = snapshotFn()
	}

	fmt.Fprintln(w, "# HELP voltserved_requests_total HTTP requests served, by path and status code.")
	fmt.Fprintln(w, "# TYPE voltserved_requests_total counter")
	for _, k := range reqKeys {
		var path, code string
		for i := 0; i < len(k); i++ {
			if k[i] == 0 {
				path, code = k[:i], k[i+1:]
				break
			}
		}
		fmt.Fprintf(w, "voltserved_requests_total{path=%q,code=%q} %d\n", path, code, reqs[k].Value())
	}

	fmt.Fprintln(w, "# HELP voltserved_request_seconds Request latency, by path.")
	fmt.Fprintln(w, "# TYPE voltserved_request_seconds histogram")
	for _, path := range latKeys {
		counts, sum, count := lats[path].snapshot()
		for i, ub := range latencyBuckets {
			fmt.Fprintf(w, "voltserved_request_seconds_bucket{path=%q,le=%q} %d\n",
				path, strconv.FormatFloat(ub, 'g', -1, 64), counts[i])
		}
		fmt.Fprintf(w, "voltserved_request_seconds_bucket{path=%q,le=\"+Inf\"} %d\n", path, count)
		fmt.Fprintf(w, "voltserved_request_seconds_sum{path=%q} %g\n", path, sum)
		fmt.Fprintf(w, "voltserved_request_seconds_count{path=%q} %d\n", path, count)
	}

	writeGauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	writeCounter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintln(w, "# HELP voltserved_predictions_total Sensor vectors evaluated (batch and stream), by tenant and model generation.")
	fmt.Fprintln(w, "# TYPE voltserved_predictions_total counter")
	for _, id := range tenantIDs {
		gens, vals := tenants[id].predictionsSnapshot()
		for _, g := range gens {
			fmt.Fprintf(w, "voltserved_predictions_total{tenant=%q,model_generation=\"%d\"} %d\n", id, g, vals[g])
		}
	}
	if v := m.retiredPredictions.Value(); v > 0 {
		fmt.Fprintf(w, "voltserved_predictions_total{tenant=%q,model_generation=\"all\"} %d\n", retiredTenant, v)
	}

	writeGauge("voltserved_active_streams", "Streaming sessions currently open.", m.ActiveStreams.Value())
	writeCounter("voltserved_streams_total", "Streaming sessions ever opened.", m.StreamsTotal.Value())
	writeCounter("voltserved_alarms_raised_total", "Alarm raise events across all streams.", m.AlarmsRaised.Value())
	writeCounter("voltserved_alarms_cleared_total", "Alarm clear events across all streams.", m.AlarmsCleared.Value())
	writeCounter("voltserved_model_reloads_total", "Successful predictor hot-swaps.", m.Reloads.Value())
	writeGauge("voltserved_faulty_sensors", "Sensors currently diagnosed faulty (dropout, stuck, or drift).", m.FaultySensors.Value())
	writeGauge("voltserved_active_fallback", "Sensors excluded by the serving fallback model (0 = primary).", m.ActiveFallback.Value())
	writeCounter("voltserved_fallback_switches_total", "Fault-tier state changes: diagnoses and fallback switches.", m.FallbackSwitches.Value())
	writeCounter("voltserved_degraded_requests_total", "Requests refused (503) or streams ended because no fallback covers the failed sensors.", m.DegradedRequests.Value())

	writeGauge("voltserved_model_generation", "Generation of the predictor currently serving.", m.ModelGeneration.Value())
	writeCounter("voltserved_promotions_total", "Shadow models promoted to live by the adaptation loop.", m.Promotions.Value())
	writeCounter("voltserved_rollbacks_total", "Operator rollbacks to the previous model generation.", m.Rollbacks.Value())
	writeCounter("voltserved_promotions_blocked_total", "Promotion attempts refused (degraded serving tier, faulty sensors, or stale adapter).", m.PromotionsBlocked.Value())
	writeCounter("voltserved_feedback_samples_total", "Labeled samples accepted into the adaptation loop.", m.FeedbackSamples.Value())
	writeCounter("voltserved_feedback_skipped_total", "Labeled samples dropped before ingestion (faulty sensors or bad values).", m.FeedbackSkipped.Value())
	writeFloatGauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	writeFloatGauge("voltserved_drift_score", "Live-model residual sigmas above the drift baseline.", m.DriftScore.Value())
	writeFloatGauge("voltserved_live_te", "Live-model total error over the shadow evaluation window.", m.LiveTE.Value())
	writeFloatGauge("voltserved_shadow_te", "Shadow-model total error over the shadow evaluation window.", m.ShadowTE.Value())

	// Transfer-calibration families (/v1/calibrate and delta artifact loads).
	writeCounter("voltserved_transfer_calibrations_total", "Fleet transfer calibrations completed via /v1/calibrate.", m.TransferCalibrations.Value())
	writeCounter("voltserved_transfer_prior_only_total", "Calibrations held at the shared prior mean by the evidence gate.", m.TransferPriorOnly.Value())
	writeCounter("voltserved_transfer_samples_total", "Labeled samples consumed by fleet transfer calibrations.", m.TransferSamples.Value())
	writeCounter("voltserved_transfer_delta_loads_total", "Thin voltsense-delta/v1 artifacts resolved against the pinned prior.", m.TransferDeltaLoads.Value())

	// Fleet families. Counter series carry the tenant label only while the
	// tenant holds counters; retired tenants fold into one _retired series,
	// so cardinality tracks the resident fleet, not its history.
	writeCounter("voltserved_shed_total", "Requests and streams refused by overload control, all tenants.", m.Shed.Value())
	fmt.Fprintln(w, "# HELP voltserved_tenant_shed_total Requests and streams refused by overload control, by tenant and reason.")
	fmt.Fprintln(w, "# TYPE voltserved_tenant_shed_total counter")
	for _, id := range tenantIDs {
		shed := tenants[id].shedSnapshot()
		for _, reason := range shedReasons {
			if v, ok := shed[reason]; ok {
				fmt.Fprintf(w, "voltserved_tenant_shed_total{tenant=%q,reason=%q} %d\n", id, reason, v)
			}
		}
	}
	for _, reason := range shedReasons {
		if v, ok := retiredShed[reason]; ok && v > 0 {
			fmt.Fprintf(w, "voltserved_tenant_shed_total{tenant=%q,reason=%q} %d\n", retiredTenant, reason, v)
		}
	}
	fmt.Fprintln(w, "# HELP voltserved_tenant_streams_total Streaming sessions ever opened, by tenant.")
	fmt.Fprintln(w, "# TYPE voltserved_tenant_streams_total counter")
	for _, id := range tenantIDs {
		fmt.Fprintf(w, "voltserved_tenant_streams_total{tenant=%q} %d\n", id, tenants[id].StreamsTotal.Value())
	}
	if v := m.retiredStreams.Value(); v > 0 {
		fmt.Fprintf(w, "voltserved_tenant_streams_total{tenant=%q} %d\n", retiredTenant, v)
	}
	fmt.Fprintln(w, "# HELP voltserved_tenant_degraded_requests_total Requests refused or streams ended degraded, by tenant.")
	fmt.Fprintln(w, "# TYPE voltserved_tenant_degraded_requests_total counter")
	for _, id := range tenantIDs {
		fmt.Fprintf(w, "voltserved_tenant_degraded_requests_total{tenant=%q} %d\n", id, tenants[id].DegradedRequests.Value())
	}
	if v := m.retiredDegraded.Value(); v > 0 {
		fmt.Fprintf(w, "voltserved_tenant_degraded_requests_total{tenant=%q} %d\n", retiredTenant, v)
	}
	writeCounter("voltserved_tenant_loads_total", "Tenant runtimes built: cold loads and rescan swaps.", m.TenantLoads.Value())
	writeCounter("voltserved_tenant_evictions_total", "Tenants retired by LRU capacity, idle TTL, or artifact removal.", m.TenantEvictions.Value())
	writeGauge("voltserved_tenants_resident", "Tenants currently loaded in the model registry.", int64(len(snaps)))

	// Per-tenant gauges come from a scrape-time snapshot of the resident
	// fleet; an evicted tenant's series vanish with it.
	fmt.Fprintln(w, "# HELP voltserved_tenant_model_generation Generation of the predictor serving each resident tenant.")
	fmt.Fprintln(w, "# TYPE voltserved_tenant_model_generation gauge")
	for _, sn := range snaps {
		fmt.Fprintf(w, "voltserved_tenant_model_generation{tenant=%q} %d\n", sn.ID, sn.Generation)
	}
	fmt.Fprintln(w, "# HELP voltserved_tenant_active_streams Streaming sessions currently open, by resident tenant.")
	fmt.Fprintln(w, "# TYPE voltserved_tenant_active_streams gauge")
	for _, sn := range snaps {
		fmt.Fprintf(w, "voltserved_tenant_active_streams{tenant=%q} %d\n", sn.ID, sn.ActiveStreams)
	}
	fmt.Fprintln(w, "# HELP voltserved_tenant_faulty_sensors Sensors currently diagnosed faulty, by resident tenant.")
	fmt.Fprintln(w, "# TYPE voltserved_tenant_faulty_sensors gauge")
	for _, sn := range snaps {
		fmt.Fprintf(w, "voltserved_tenant_faulty_sensors{tenant=%q} %d\n", sn.ID, sn.FaultySensors)
	}
	fmt.Fprintln(w, "# HELP voltserved_tenant_degraded Whether the tenant's fault tier is degraded (1) or serving (0).")
	fmt.Fprintln(w, "# TYPE voltserved_tenant_degraded gauge")
	for _, sn := range snaps {
		degraded := 0
		if sn.Degraded {
			degraded = 1
		}
		fmt.Fprintf(w, "voltserved_tenant_degraded{tenant=%q} %d\n", sn.ID, degraded)
	}
	var inflight, queued int64
	if admissionFn != nil {
		inflight, queued = admissionFn()
	}
	writeGauge("voltserved_admission_inflight", "Unary requests currently admitted by overload control.", inflight)
	writeGauge("voltserved_admission_queued", "Unary requests waiting for an admission slot.", queued)

	fmt.Fprintln(w, "# HELP voltsense_build_info Build metadata; the value is always 1.")
	fmt.Fprintln(w, "# TYPE voltsense_build_info gauge")
	fmt.Fprintf(w, "voltsense_build_info{version=%q,goversion=%q} 1\n", version, runtime.Version())
}
