// Package serve turns the repository's offline reproduction into the shape
// the paper actually motivates: a runtime service. The paper trains sensor
// placement and the Eq. 17 model at design time, then evaluates Eq. 20 on
// live sensor readings "for dynamic noise management at runtime" — this
// package is that runtime half as a concurrent HTTP server.
//
// Endpoints:
//
//	POST /v1/predict  batched JSON inference: sensor-reading vectors in,
//	                  per-block voltage estimates out
//	POST /v1/stream   NDJSON streaming session: one line per cycle in,
//	                  monitor alarm events out; each connection owns its
//	                  own monitor state machine
//	GET  /healthz     liveness + loaded-model summary
//	GET  /metrics     Prometheus text exposition (dependency-free)
//	POST /v1/reload   atomic rescan of the model registry
//	POST /v1/calibrate  few-shot transfer calibration: labeled samples in,
//	                  a thin per-tenant delta over the shared golden-chip
//	                  prior persisted and hot-loaded (fleet mode + Prior)
//
// # Fleet serving
//
// The paper fits one predictor per chip instance; a fleet deployment hosts
// many chips behind one server. Every request routes to a tenant — the
// X-Voltsense-Tenant header, the `tenant` query parameter, or a `tenant`
// body field, defaulting to the configured default tenant — and each tenant
// owns a complete runtime (model generations, fault guard, online adapter,
// monitor pool), loaded on demand from an artifact directory through an
// LRU-bounded registry (internal/registry). Tenants are isolated by
// construction: a fault diagnosed on one chip, or a shadow model promoted
// on it, never touches another. Configured with a Loader instead of a
// StoreDir, the server runs exactly the pre-fleet single-tenant shape: one
// pinned default tenant, reloaded wholesale on /v1/reload.
//
// Each tenant's model lives behind an atomic.Pointer: /v1/reload (or SIGHUP
// in cmd/voltserved) rescans the store and swaps only tenants whose
// artifact changed, without dropping in-flight streams — a session keeps
// the runtime it started with until it ends.
//
// # Fault tolerance
//
// When an artifact carries a `fallbacks` section (core.FallbackSet), the
// tenant runs the internal/faults degradation tier: every reading vector
// feeds a chip-global fault detector, and on a diagnosis (dropout, stuck-at
// flatline, drift) prediction switches atomically to the narrowest
// precomputed leave-k-out fallback — in-flight streams keep their alarm
// hysteresis and never drop. Dropouts are reported in request JSON as null
// readings. When more sensors fail than the fallbacks cover, the tenant
// enters degraded mode: /v1/predict and new /v1/stream sessions get 503
// with Retry-After, and open streams end with an error line. Legacy
// artifacts without fallbacks serve exactly as before.
//
// # Overload control
//
// The same 503+Retry-After contract generalizes from "this chip cannot be
// served" to "the server cannot absorb this load": Config.Overload bounds
// admitted unary requests behind a slot semaphore with a bounded,
// deadline-capped queue, and caps concurrently open streams globally and
// per tenant. Work beyond the bounds is shed immediately with a
// machine-readable reason instead of queueing without limit.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"voltsense/internal/core"
	"voltsense/internal/faults"
	"voltsense/internal/monitor"
	"voltsense/internal/online"
	"voltsense/internal/registry"
	"voltsense/internal/traceio"
	"voltsense/internal/transfer"
)

// Config parameterizes a Server.
type Config struct {
	// Loader produces the default tenant's predictor; called at startup and
	// again on every reload. Typically a closure over core.LoadPredictor
	// and an artifact path. Exactly one of Loader and StoreDir is required;
	// Loader runs the server in single-tenant mode.
	Loader func() (*core.Predictor, error)
	// StoreDir, when non-empty, runs the server in fleet mode: a model
	// registry over the directory's <tenant-id>.json artifacts, loading
	// tenants on demand and routing requests by tenant id.
	StoreDir string
	// DefaultTenant is the tenant id used for requests that carry none, and
	// the id pinned against eviction. Default "default".
	DefaultTenant string
	// MaxTenants bounds resident tenant runtimes; past it the
	// least-recently-used unpinned tenant is retired (its counters fold
	// into the _retired metric aggregate). Default 64.
	MaxTenants int
	// Overload tunes admission control and stream caps; the zero value
	// means unlimited (pre-fleet behavior).
	Overload Overload
	// Monitor is the default alarm configuration for streaming sessions.
	// Vth is required; per-session query parameters can override.
	Monitor monitor.Config
	// MaxBatch caps the vectors accepted by one /v1/predict request.
	// Default 4096.
	MaxBatch int
	// MaxBodyBytes caps any single request body. Default 32 MiB.
	MaxBodyBytes int64
	// Detector tunes fault detection when a loaded artifact carries
	// fallbacks. The zero value uses the faults package defaults.
	Detector faults.DetectorConfig
	// InjectFaults, when non-empty, corrupts every incoming reading vector
	// per the spec (the voltserved --fault-spec flag) — a chaos harness for
	// drilling the degradation tier against a live server.
	InjectFaults []faults.Fault
	// RetryAfter is the Retry-After header value returned with degraded
	// 503s. Default 10 seconds.
	RetryAfter time.Duration
	// Adapt enables the online recalibration loop: POST /v1/feedback
	// ingests labeled samples into a shadow refit, and the shadow is
	// promoted to live when it beats the serving model (see
	// internal/online). POST /v1/rollback reverts the last promotion.
	Adapt bool
	// Adaptation tunes the recalibration loop. Zero values take the
	// online package defaults; a zero Vth additionally inherits
	// Monitor.Vth so scoring and alarming agree on what an emergency is.
	Adaptation online.Config
	// FeedbackLog, when non-nil, records every labeled sample accepted by
	// the default tenant's /v1/feedback as CSV rows (readings then truths)
	// via traceio.NewSampleWriter — an offline-replayable audit trail of
	// what the adaptation loop learned from.
	FeedbackLog io.Writer
	// Prior, when non-nil, pins the fleet's shared golden-chip prior
	// (internal/transfer): POST /v1/calibrate aligns a tenant's few labeled
	// samples against it and persists the result as a thin
	// voltsense-delta/v1 artifact, and the store loader resolves such delta
	// artifacts back into full predictors at load time. Requires StoreDir.
	Prior *transfer.SharedPrior
	// CalibrateShrinkage is the prior trust τ in /v1/calibrate MAP refits:
	// larger values hold the fit closer to the golden prior. 0 means the
	// transfer package default (1).
	CalibrateShrinkage float64
	// CalibrateMinSamples is the calibration evidence gate: below this many
	// labeled samples /v1/calibrate enrolls the tenant at the pure prior
	// mean instead of refitting. 0 means the transfer package default (4).
	CalibrateMinSamples int
	// CalibrateDeltaTol bounds the lossy sparsification of stored deltas
	// (see transfer.MakeDelta). 0 means the transfer package default (1e-4).
	CalibrateDeltaTol float64
	// Version is the build version exposed by the voltsense_build_info
	// metric. Empty means "dev".
	Version string
}

// Server is the voltage-map inference service.
type Server struct {
	cfg       Config
	metrics   *Metrics
	reg       *registry.Registry
	defaultID string
	gen       atomic.Uint64 // model generations, global across tenants
	start     time.Time
	mux       *http.ServeMux
	reloadMu  sync.Mutex // serializes registry rescans

	adm         *admission
	streamCount atomic.Int64 // open NDJSON sessions, all tenants

	// calibMu serializes /v1/calibrate refits: each calibration reads the
	// incumbent lineage, writes an artifact, and refreshes the registry —
	// interleaving two of those for one store is never useful.
	calibMu sync.Mutex

	// fbMu serializes the optional feedback CSV log; the writer is created
	// on the default tenant's first adapter build and dropped if a reload
	// changes the model's shape (a CSV stream has one fixed-width header).
	fbMu     sync.Mutex
	fbWriter *traceio.SampleWriter
	fbRow    []float64

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// New builds a server and loads the default tenant through cfg.Loader (or,
// in fleet mode, from cfg.StoreDir if its artifact exists).
func New(cfg Config) (*Server, error) {
	if cfg.Loader == nil && cfg.StoreDir == "" {
		return nil, errors.New("serve: one of Config.Loader or Config.StoreDir is required")
	}
	if cfg.Loader != nil && cfg.StoreDir != "" {
		return nil, errors.New("serve: Config.Loader and Config.StoreDir are mutually exclusive")
	}
	if cfg.DefaultTenant == "" {
		cfg.DefaultTenant = "default"
	}
	if !registry.ValidID(cfg.DefaultTenant) {
		return nil, fmt.Errorf("serve: invalid default tenant id %q", cfg.DefaultTenant)
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 64
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 10 * time.Second
	}
	if cfg.Adaptation.Vth == 0 {
		cfg.Adaptation.Vth = cfg.Monitor.Vth
	}
	if cfg.Prior != nil && cfg.StoreDir == "" {
		return nil, errors.New("serve: Config.Prior requires Config.StoreDir (fleet mode)")
	}
	s := &Server{cfg: cfg, metrics: NewMetrics(), defaultID: cfg.DefaultTenant, start: time.Now()}
	s.metrics.SetVersion(cfg.Version)
	s.adm = newAdmission(cfg.Overload)
	s.metrics.SetTenantSnapshotFunc(s.tenantSnapshots)
	s.metrics.SetAdmissionStatsFunc(s.adm.stats)

	var src registry.Source
	if cfg.StoreDir != "" {
		src = s.dirSource(registry.Dir{Path: cfg.StoreDir})
	} else {
		src = s.loaderSource()
	}
	reg, err := registry.New(registry.Config{
		Source:   src,
		Pinned:   s.defaultID,
		Capacity: cfg.MaxTenants,
		OnRetire: s.onRetire,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.reg = reg

	// Eager-load the default tenant so a bad artifact fails startup, not
	// the first request. In fleet mode a missing default artifact is fine
	// — clients that name tenants never touch it.
	if _, err := s.reg.Get(s.defaultID); err != nil {
		if cfg.StoreDir == "" || !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("serve: initial load: %w", err)
		}
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/predict", s.instrument("/v1/predict", s.handlePredict))
	s.mux.HandleFunc("/v1/stream", s.instrument("/v1/stream", s.handleStream))
	s.mux.HandleFunc("/v1/reload", s.instrument("/v1/reload", s.handleReload))
	s.mux.HandleFunc("/v1/feedback", s.instrument("/v1/feedback", s.handleFeedback))
	s.mux.HandleFunc("/v1/calibrate", s.instrument("/v1/calibrate", s.handleCalibrate))
	s.mux.HandleFunc("/v1/rollback", s.instrument("/v1/rollback", s.handleRollback))
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	return s, nil
}

// loaderSource adapts the single-tenant Loader to the registry: one id (the
// default tenant) whose fingerprint changes on every Stat, so each rescan
// re-runs the Loader — exactly the pre-fleet "/v1/reload always reloads"
// semantics.
func (s *Server) loaderSource() registry.Source {
	var statSeq atomic.Uint64
	fp := func() string { return strconv.FormatUint(statSeq.Add(1), 10) }
	return registry.Source{
		List: func() ([]string, error) { return []string{s.defaultID}, nil },
		Stat: func(id string) (string, error) {
			if id != s.defaultID {
				return "", fmt.Errorf("tenant %q: %w", id, fs.ErrNotExist)
			}
			return fp(), nil
		},
		Load: func(id string) (any, string, error) {
			if id != s.defaultID {
				return nil, "", fmt.Errorf("tenant %q: %w", id, fs.ErrNotExist)
			}
			pred, err := s.cfg.Loader()
			if err != nil {
				return nil, "", err
			}
			tn, err := s.newTenant(id, pred)
			if err != nil {
				return nil, "", err
			}
			return tn, fp(), nil
		},
	}
}

// dirSource serves tenants from the standard artifact directory layout.
func (s *Server) dirSource(dir registry.Dir) registry.Source {
	return registry.Source{
		List: dir.List,
		Stat: dir.Stat,
		Load: func(id string) (any, string, error) {
			// Fingerprint before reading: if a writer atomically replaces
			// the artifact mid-load, the next rescan sees a newer
			// fingerprint and reloads.
			fingerprint, err := dir.Stat(id)
			if err != nil {
				return nil, "", err
			}
			path, err := dir.File(id)
			if err != nil {
				return nil, "", err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, "", err
			}
			pred, err := s.loadArtifact(data)
			if err != nil {
				return nil, "", err
			}
			tn, err := s.newTenant(id, pred)
			if err != nil {
				return nil, "", err
			}
			return tn, fingerprint, nil
		},
	}
}

// onRetire observes tenants leaving the registry. Replaced tenants (rescan
// swaps) keep their id resident, so their counters stay live under the same
// tenant label; evicted or removed tenants fold into the _retired aggregate
// to keep label cardinality bounded by the resident fleet.
func (s *Server) onRetire(id string, v any, replaced bool) {
	tn := v.(*Tenant)
	tn.retired.Store(true)
	if !replaced {
		s.metrics.RetireTenant(id)
		s.metrics.TenantEvictions.Inc()
	}
}

// Metrics exposes the registry (tests and embedders).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Registry exposes the tenant cache (tests and embedders).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Handler returns the routing handler, for mounting under httptest or an
// outer mux.
func (s *Server) Handler() http.Handler { return s.mux }

// DefaultTenantID returns the id requests without a tenant route to.
func (s *Server) DefaultTenantID() string { return s.defaultID }

// defaultTenant returns the default tenant if resident (tests and health).
func (s *Server) defaultTenant() *Tenant {
	if v, ok := s.reg.Peek(s.defaultID); ok {
		return v.(*Tenant)
	}
	return nil
}

// Generation returns the default tenant's current model generation,
// starting at 1 (0 when no default artifact is loaded).
func (s *Server) Generation() uint64 {
	if tn := s.defaultTenant(); tn != nil {
		return tn.Generation()
	}
	return 0
}

// Reload rescans the model registry, atomically swapping only tenants whose
// artifact changed (in single-tenant mode: always the default tenant). On
// error the previous models keep serving. In-flight streaming sessions
// finish on the runtime they started with.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	res := s.reg.Rescan()
	if n := len(res.Reloaded); n > 0 {
		s.metrics.Reloads.Add(uint64(n))
	}
	s.refreshFaultMetrics()
	return res.Err()
}

// EvictIdleTenants retires tenants idle longer than maxIdle (never the
// default tenant), returning the retired ids. cmd/voltserved runs this on a
// timer when -tenant-idle is set.
func (s *Server) EvictIdleTenants(maxIdle time.Duration) []string {
	return s.reg.EvictIdle(maxIdle)
}

// initFeedbackLog lazily creates the CSV feedback recorder, or drops it when
// a reload changed the sample width (the stream has one fixed header row).
func (s *Server) initFeedbackLog(q, k int) {
	if s.cfg.FeedbackLog == nil {
		return
	}
	s.fbMu.Lock()
	defer s.fbMu.Unlock()
	if s.fbWriter != nil {
		if len(s.fbRow) != q+k {
			s.fbWriter = nil // width changed; stop recording rather than corrupt
		}
		return
	}
	names := make([]string, 0, q+k)
	for i := 0; i < q; i++ {
		names = append(names, fmt.Sprintf("s%d", i))
	}
	for i := 0; i < k; i++ {
		names = append(names, fmt.Sprintf("f%d", i))
	}
	sw, err := traceio.NewSampleWriter(s.cfg.FeedbackLog, names)
	if err != nil {
		return // recording is best-effort; serving must not fail on it
	}
	s.fbWriter = sw
	s.fbRow = make([]float64, q+k)
}

// degrade rejects a request in degraded mode: more of the tenant's sensors
// failed than the precomputed fallbacks cover, so every prediction would be
// garbage.
func (s *Server) degrade(w http.ResponseWriter, tn *Tenant, st faults.Status) {
	s.metrics.DegradedRequests.Inc()
	tn.tm.DegradedRequests.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds())))
	httpError(w, http.StatusServiceUnavailable,
		"degraded: %d sensors faulty (%v), no fallback covers them; replace sensors or reload a wider-budget model",
		len(st.Faulty), st.Faulty)
}

// ListenAndServe serves on addr until Shutdown or a listener error. A clean
// shutdown returns nil.
func (s *Server) ListenAndServe(addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	err := srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown gracefully drains the server: new connections are refused,
// in-flight requests (including streams) get until ctx expires, then any
// still-open streaming connections are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv == nil {
		return nil
	}
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
		return err
	}
	return nil
}

// statusRecorder captures the response code for metrics while passing
// Flush through so streaming handlers still reach the client incrementally.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		t0 := time.Now()
		h(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.metrics.ObserveRequest(path, rec.status, time.Since(t0))
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		httpError(w, http.StatusMethodNotAllowed, "%s requires %s", r.URL.Path, method)
		return false
	}
	return true
}

// reading decodes a JSON number or null. null marks a sensor dropout (JSON
// cannot carry NaN) and decodes to NaN, which the fault tier treats as
// dropout evidence; without fault tolerance it is rejected like any other
// non-finite reading.
type reading float64

// UnmarshalJSON implements the null-to-NaN decoding. A token that is a JSON
// number ParseFloat takes is converted directly; anything else goes through
// json.Unmarshal, which words the error.
func (r *reading) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*r = reading(math.NaN())
		return nil
	}
	if len(b) > 0 && numberEnd(b, 0) == len(b) {
		if f, err := strconv.ParseFloat(string(b), 64); err == nil {
			*r = reading(f)
			return nil
		}
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*r = reading(f)
	return nil
}

// toFloats converts a decoded reading vector.
func toFloats(rs []reading) []float64 {
	out := make([]float64, len(rs))
	for i, v := range rs {
		out[i] = float64(v)
	}
	return out
}

// predictRequest is the /v1/predict input: one or more sensor-reading
// vectors, each of length Q (the tenant's model sensor count). Tenant is
// optional; it routes the request when no header or query parameter does.
type predictRequest struct {
	Tenant   string      `json:"tenant"`
	Readings [][]reading `json:"readings"`
}

// predictResponse carries per-block voltage estimates, one row per input
// vector, each of length K.
type predictResponse struct {
	Tenant          string      `json:"tenant"`
	ModelGeneration uint64      `json:"model_generation"`
	Blocks          int         `json:"blocks"`
	Voltages        [][]float64 `json:"voltages"`
}

// checkVector validates one reading vector. With the fault tier active
// (allowNaN), NaN readings — decoded from JSON null — are legitimate
// dropout markers; infinities are never accepted.
func checkVector(v []float64, q int, allowNaN bool) error {
	if len(v) != q {
		return fmt.Errorf("reading has %d values, model wants %d", len(v), q)
	}
	for _, x := range v {
		if math.IsNaN(x) && !allowNaN {
			return fmt.Errorf("reading contains null/NaN; the loaded model has no fallbacks to tolerate a dropout")
		}
		if math.IsInf(x, 0) {
			return fmt.Errorf("reading contains non-finite value %v", x)
		}
	}
	return nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	release, reason := s.adm.acquire()
	if reason != "" {
		s.shed(w, s.tenantForShed(r), reason)
		return
	}
	defer release()
	cb := getCodecBuf()
	defer putCodecBuf(cb)
	tenant, batch, err := decodePredict(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), cb)
	if err != nil {
		httpError(w, http.StatusBadRequest, "malformed JSON: %v", err)
		return
	}
	if len(batch) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch: provide at least one readings vector")
		return
	}
	if len(batch) > s.cfg.MaxBatch {
		httpError(w, http.StatusRequestEntityTooLarge, "batch of %d exceeds limit %d", len(batch), s.cfg.MaxBatch)
		return
	}
	tn, ok := s.resolveTenant(w, r, tenant)
	if !ok {
		return
	}
	m := tn.cur.Load()
	for i, v := range batch {
		if err := checkVector(v, m.q, m.guard != nil); err != nil {
			httpError(w, http.StatusBadRequest, "readings[%d]: %v", i, err)
			return
		}
	}
	if m.guard != nil && m.guard.Snapshot().Degraded {
		s.degrade(w, tn, m.guard.Snapshot())
		return
	}
	out := make([][]float64, len(batch))
	for i, v := range batch {
		if m.injector != nil {
			m.injector.Apply(int(tn.injectCycle.Add(1)-1), v)
		}
		if m.guard == nil {
			out[i] = m.pred.Predict(v)
			continue
		}
		f, st := m.guard.Process(v)
		if st.Changed {
			s.metrics.FallbackSwitches.Inc()
			s.refreshFaultMetrics()
		}
		if st.Degraded {
			s.degrade(w, tn, st)
			return
		}
		out[i] = f
	}
	for i, f := range out {
		if !finite(f) {
			httpError(w, http.StatusBadRequest, "readings[%d]: prediction is not finite", i)
			return
		}
	}
	tn.tm.AddPredictions(m.gen, uint64(len(batch)))
	// The answer is the bytes writeJSON would write for a predictResponse,
	// in one Write.
	cb.b = appendPredictBody(cb.b[:0], m.prefix, out)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(cb.b)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	s.reloadMu.Lock()
	res := s.reg.Rescan()
	if n := len(res.Reloaded); n > 0 {
		s.metrics.Reloads.Add(uint64(n))
	}
	s.refreshFaultMetrics()
	s.reloadMu.Unlock()
	if err := res.Err(); err != nil {
		httpError(w, http.StatusInternalServerError, "reload failed, previous model still serving: %v", err)
		return
	}
	resp := map[string]any{
		"status":   "reloaded",
		"reloaded": res.Reloaded,
		"removed":  res.Removed,
	}
	if tn := s.defaultTenant(); tn != nil {
		m := tn.cur.Load()
		resp["model_generation"] = m.gen
		resp["sensors"] = m.q
		resp["blocks"] = m.k
	}
	writeJSON(w, http.StatusOK, resp)
}

// feedbackSample pairs one cycle's sensor readings with the ground-truth
// critical-node voltages measured for it (periodic on-die scan or offline
// replay). Feedback carries no nulls: a labeled sample with a dropped-out
// sensor teaches the fit garbage, so non-finite values are rejected.
type feedbackSample struct {
	Readings []reading `json:"readings"`
	Voltages []float64 `json:"voltages"`
}

// feedbackRequest is the /v1/feedback input. Tenant is optional routing,
// like predictRequest's.
type feedbackRequest struct {
	Tenant  string           `json:"tenant"`
	Samples []feedbackSample `json:"samples"`
}

// feedbackResponse reports what the batch did to the adaptation loop.
type feedbackResponse struct {
	Accepted        int     `json:"accepted"`
	Skipped         int     `json:"skipped"`
	Promoted        bool    `json:"promoted"`
	ModelGeneration uint64  `json:"model_generation"`
	ModelVersion    int     `json:"model_version"`
	ShadowSamples   int     `json:"shadow_samples"`
	DriftScore      float64 `json:"drift_score"`
	LiveTE          float64 `json:"live_te"`
	ShadowTE        float64 `json:"shadow_te"`
	Note            string  `json:"note,omitempty"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	if !s.cfg.Adapt {
		httpError(w, http.StatusNotFound, "online adaptation is disabled; restart voltserved with -adapt")
		return
	}
	release, reason := s.adm.acquire()
	if reason != "" {
		s.shed(w, s.tenantForShed(r), reason)
		return
	}
	defer release()
	var req feedbackRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "malformed JSON: %v", err)
		return
	}
	if len(req.Samples) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch: provide at least one labeled sample")
		return
	}
	if len(req.Samples) > s.cfg.MaxBatch {
		httpError(w, http.StatusRequestEntityTooLarge, "batch of %d exceeds limit %d", len(req.Samples), s.cfg.MaxBatch)
		return
	}
	tn, ok := s.resolveTenant(w, r, req.Tenant)
	if !ok {
		return
	}
	ast := tn.adapter.Load()
	if ast == nil {
		httpError(w, http.StatusNotFound, "online adaptation is disabled; restart voltserved with -adapt")
		return
	}
	m := tn.cur.Load()
	if m.guard != nil {
		st := m.guard.Snapshot()
		if st.Degraded {
			s.degrade(w, tn, st)
			return
		}
		if len(st.Faulty) > 0 {
			// Readings from diagnosed sensors are corrupt; learning from
			// them would converge the shadow onto the fault, not the chip.
			s.metrics.FeedbackSkipped.Add(uint64(len(req.Samples)))
			stat := ast.ad.Status()
			writeJSON(w, http.StatusOK, feedbackResponse{
				Skipped:         len(req.Samples),
				ModelGeneration: m.gen,
				ModelVersion:    stat.Version,
				ShadowSamples:   stat.ShadowSamples,
				DriftScore:      stat.DriftScore,
				LiveTE:          stat.LiveTE,
				ShadowTE:        stat.ShadowTE,
				Note:            fmt.Sprintf("samples skipped: sensors %v are faulty", st.Faulty),
			})
			return
		}
	}
	// Validate the whole batch before ingesting any of it, so a bad sample
	// rejects the request without half-applying it.
	batch := make([][]float64, len(req.Samples))
	for i, smp := range req.Samples {
		batch[i] = toFloats(smp.Readings)
		if err := checkVector(batch[i], ast.q, false); err != nil {
			httpError(w, http.StatusBadRequest, "samples[%d].readings: %v", i, err)
			return
		}
		if len(smp.Voltages) != ast.k {
			httpError(w, http.StatusBadRequest, "samples[%d].voltages has %d values, model has %d blocks", i, len(smp.Voltages), ast.k)
			return
		}
		for j, v := range smp.Voltages {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				httpError(w, http.StatusBadRequest, "samples[%d].voltages[%d]: non-finite value %v", i, j, v)
				return
			}
		}
	}
	resp := feedbackResponse{}
	for i, x := range batch {
		res, err := ast.ad.Ingest(x, req.Samples[i].Voltages)
		if err != nil {
			// Unreachable after validation, but never half-report it.
			httpError(w, http.StatusBadRequest, "samples[%d]: %v", i, err)
			return
		}
		resp.Accepted++
		if tn.id == s.defaultID {
			s.logFeedback(x, req.Samples[i].Voltages)
		}
		if res.Promoted != nil {
			resp.Promoted = true
			s.metrics.Promotions.Inc()
		}
		if res.Blocked != nil {
			s.metrics.PromotionsBlocked.Inc()
			resp.Note = fmt.Sprintf("promotion blocked: %v", res.Blocked)
		}
	}
	s.metrics.FeedbackSamples.Add(uint64(resp.Accepted))
	stat := ast.ad.Status()
	s.metrics.DriftScore.Set(stat.DriftScore)
	s.metrics.LiveTE.Set(stat.LiveTE)
	s.metrics.ShadowTE.Set(stat.ShadowTE)
	resp.ModelGeneration = tn.cur.Load().gen
	resp.ModelVersion = stat.Version
	resp.ShadowSamples = stat.ShadowSamples
	resp.DriftScore = stat.DriftScore
	resp.LiveTE = stat.LiveTE
	resp.ShadowTE = stat.ShadowTE
	writeJSON(w, http.StatusOK, resp)
}

// logFeedback appends one accepted labeled sample to the CSV audit trail.
func (s *Server) logFeedback(x, f []float64) {
	s.fbMu.Lock()
	defer s.fbMu.Unlock()
	if s.fbWriter == nil || len(s.fbRow) != len(x)+len(f) {
		return
	}
	copy(s.fbRow, x)
	copy(s.fbRow[len(x):], f)
	s.fbWriter.AppendSamples(s.fbRow)
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	if !s.cfg.Adapt {
		httpError(w, http.StatusNotFound, "online adaptation is disabled; restart voltserved with -adapt")
		return
	}
	// Rollback bodies are optional ({"tenant": ...} or nothing at all).
	var req struct {
		Tenant string `json:"tenant"`
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		httpError(w, http.StatusBadRequest, "malformed JSON: %v", err)
		return
	}
	tn, ok := s.resolveTenant(w, r, req.Tenant)
	if !ok {
		return
	}
	ast := tn.adapter.Load()
	if ast == nil {
		httpError(w, http.StatusNotFound, "online adaptation is disabled; restart voltserved with -adapt")
		return
	}
	target, err := ast.ad.Rollback()
	if err != nil {
		httpError(w, http.StatusConflict, "rollback failed: %v", err)
		return
	}
	s.metrics.Rollbacks.Inc()
	m := tn.cur.Load()
	resp := map[string]any{
		"status":           "rolled-back",
		"tenant":           tn.id,
		"model_generation": m.gen,
	}
	if target.Lineage != nil {
		resp["model_version"] = target.Lineage.Version
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	resp := map[string]any{
		"status":         "ok",
		"active_streams": s.metrics.ActiveStreams.Value(),
		"uptime_seconds": time.Since(s.start).Seconds(),
		"default_tenant": s.defaultID,
	}
	// The default tenant's model summary keeps the pre-fleet health shape.
	if tn := s.defaultTenant(); tn != nil {
		m := tn.cur.Load()
		resp["model_generation"] = m.gen
		resp["sensors"] = m.q
		resp["blocks"] = m.k
		resp["fault_tolerance"] = m.guard != nil
		if m.guard != nil {
			st := m.guard.Snapshot()
			resp["faulty_sensors"] = st.Faulty
			resp["active_fallback_excluded"] = st.ActiveExcluded
			resp["degraded"] = st.Degraded
			if st.Degraded {
				resp["status"] = "degraded"
			}
		}
		if ast := tn.adapter.Load(); ast != nil {
			stat := ast.ad.Status()
			resp["adaptation"] = map[string]any{
				"model_version":    stat.Version,
				"feedback_samples": stat.Ingested,
				"shadow_ready":     stat.ShadowReady,
				"shadow_samples":   stat.ShadowSamples,
				"drift_score":      stat.DriftScore,
				"live_te":          stat.LiveTE,
				"shadow_te":        stat.ShadowTE,
				"promotions":       stat.Promotions,
				"rollbacks":        stat.Rollbacks,
			}
		}
	}
	tenants := make([]map[string]any, 0, 8)
	for _, tn := range s.residentTenants() {
		m := tn.cur.Load()
		entry := map[string]any{
			"id":               tn.id,
			"model_generation": m.gen,
			"active_streams":   tn.streams.Load(),
		}
		if m.guard != nil {
			entry["degraded"] = m.guard.Snapshot().Degraded
		}
		tenants = append(tenants, entry)
	}
	resp["tenants"] = tenants
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

// sessionConfig resolves per-stream overrides of the default alarm config
// from query parameters (vth, clear_margin, clear_cycles). The bool reports
// whether anything was overridden — only default-config sessions use the
// monitor pool.
func (s *Server) sessionConfig(r *http.Request) (monitor.Config, bool, error) {
	cfg := s.cfg.Monitor
	overridden := false
	q := r.URL.Query()
	if v := q.Get("vth"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cfg, false, fmt.Errorf("bad vth %q: %v", v, err)
		}
		cfg.Vth = f
		overridden = true
	}
	if v := q.Get("clear_margin"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cfg, false, fmt.Errorf("bad clear_margin %q: %v", v, err)
		}
		cfg.ClearMargin = f
		overridden = true
	}
	if v := q.Get("clear_cycles"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return cfg, false, fmt.Errorf("bad clear_cycles %q: %v", v, err)
		}
		cfg.ClearCycles = n
		overridden = true
	}
	return cfg, overridden, nil
}

// streamIn is one NDJSON input line: a cycle's sensor readings (null = the
// sensor dropped out this cycle). Cycle is optional; omitted cycles number
// sequentially from the last seen value.
type streamIn struct {
	Cycle    *int      `json:"cycle"`
	Readings []reading `json:"readings"`
}

// streamEvent is one NDJSON output line: an alarm transition.
type streamEvent struct {
	Cycle   int     `json:"cycle"`
	Kind    string  `json:"kind"` // "raised" or "cleared"
	Block   int     `json:"block"`
	Voltage float64 `json:"voltage"`
}

// streamVoltages is emitted per cycle when ?emit_voltages=true: the
// full-chip per-block voltage estimate for that cycle.
type streamVoltages struct {
	Cycle    int       `json:"cycle"`
	Voltages []float64 `json:"voltages"`
}

// streamFault is emitted when the fault tier changes state mid-session:
// a sensor was diagnosed and prediction switched to a fallback (or the
// session is about to end degraded).
type streamFault struct {
	Cycle            int    `json:"cycle"`
	FaultySensors    []int  `json:"faulty_sensors"`
	FallbackExcluded []int  `json:"fallback_excluded"`
	Degraded         bool   `json:"degraded"`
	Note             string `json:"note,omitempty"`
}

// streamPromotion is emitted when the adaptation loop promotes a shadow
// model mid-session and the session adopts the new generation (alarm
// hysteresis carries over; only the coefficients change).
type streamPromotion struct {
	Cycle           int    `json:"cycle"`
	ModelGeneration uint64 `json:"model_generation"`
	ModelVersion    int    `json:"model_version,omitempty"`
	Source          string `json:"source,omitempty"`
}

// streamSummary closes a clean stream.
type streamSummary struct {
	Cycles          int     `json:"cycles"`
	Alarms          int     `json:"alarms"`
	EmergencyCycles int     `json:"emergency_cycles"`
	WorstVoltage    float64 `json:"worst_voltage"`
	WorstBlock      int     `json:"worst_block"`
	ActiveAlarms    []int   `json:"active_alarms"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	// Enable full-duplex before any possible rejection: without it, HTTP/1.x
	// delays an early response (shed, degraded, unknown tenant) until the
	// client finishes uploading its cycle stream, which under overload is
	// exactly when the client most needs the 503 promptly. Each session also
	// owns its connection outright — after interleaved chunked reads and
	// writes (or a rejection that never reads the body) the conn is not
	// safely reusable, so advertise the close up front.
	http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Connection", "close")
	cfg, overridden, err := s.sessionConfig(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	emitVoltages := r.URL.Query().Get("emit_voltages") == "true"
	// Streams route by header or query only: the NDJSON body is cycles.
	tn, ok := s.resolveTenant(w, r, "")
	if !ok {
		return
	}
	m := tn.cur.Load() // session keeps this runtime until it ends

	// A chip whose sensors already exceed fallback coverage cannot be
	// monitored; refuse the session up front rather than stream garbage.
	if m.guard != nil {
		if st := m.guard.Snapshot(); st.Degraded {
			s.degrade(w, tn, st)
			return
		}
	}

	releaseStream, reason := s.acquireStream(tn)
	if reason != "" {
		s.shed(w, tn, reason)
		return
	}
	defer releaseStream()

	var mon *monitor.Monitor
	var returnPool *sync.Pool // pool to return mon to; tracks adoptions
	if overridden {
		mon, err = monitor.New(m.pred, m.k, cfg, nil)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad session config: %v", err)
			return
		}
	} else {
		mon = m.pool.Get().(*monitor.Monitor)
		returnPool = m.pool
		defer func() {
			mon.Reset()
			returnPool.Put(mon)
		}()
	}

	s.metrics.StreamsTotal.Inc()
	tn.tm.StreamsTotal.Inc()
	s.metrics.ActiveStreams.Inc()
	defer s.metrics.ActiveStreams.Dec()

	// The session interleaves reads of the request body with writes of the
	// response: without full-duplex mode, net/http closes the request body
	// at the first write (HTTP/1.x).
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() { rc.Flush() }
	flush()

	var line []byte // the emit_voltages line, written in one Write
	dec := json.NewDecoder(r.Body)
	cycle := -1
	for {
		var in streamIn
		if err := dec.Decode(&in); err != nil {
			if errors.Is(err, io.EOF) {
				st := mon.Stats()
				active := mon.ActiveAlarms()
				if active == nil {
					active = []int{} // NDJSON consumers expect [], not null
				}
				enc.Encode(map[string]streamSummary{"summary": {
					Cycles:          st.Cycles,
					Alarms:          st.Alarms,
					EmergencyCycles: st.EmergencyCycles,
					WorstVoltage:    st.WorstVoltage,
					WorstBlock:      st.WorstBlock,
					ActiveAlarms:    active,
				}})
				flush()
				return
			}
			// Malformed line or mid-stream disconnect: report if the client
			// is still there, then end the session.
			enc.Encode(map[string]string{"error": fmt.Sprintf("bad input line: %v", err)})
			flush()
			return
		}
		if in.Cycle != nil {
			cycle = *in.Cycle
		} else {
			cycle++
		}
		// Adopt promoted generations mid-session: a promotion keeps the
		// sensor set and output shape, so the session's monitor (and its
		// alarm hysteresis) carries over via SetPredictor. Reloads are not
		// adopted — the session finishes on the generation it started with.
		if latest := tn.cur.Load(); latest != m && latest.adopt && latest.q == m.q && latest.k == m.k {
			mon.SetPredictor(latest.pred)
			if returnPool != nil {
				returnPool = latest.pool
			}
			m = latest
			ev := streamPromotion{Cycle: cycle, ModelGeneration: m.gen}
			if lin := m.pred.Lineage; lin != nil {
				ev.ModelVersion = lin.Version
				ev.Source = lin.Source
			}
			enc.Encode(map[string]streamPromotion{"promotion": ev})
			flush()
		}
		readings := toFloats(in.Readings)
		if err := checkVector(readings, m.q, m.guard != nil); err != nil {
			enc.Encode(map[string]string{"error": err.Error()})
			flush()
			return
		}
		if m.injector != nil {
			m.injector.Apply(cycle, readings)
		}
		var f []float64
		if m.guard == nil {
			f = m.pred.Predict(readings)
		} else {
			var st faults.Status
			f, st = m.guard.Process(readings)
			if st.Changed {
				s.metrics.FallbackSwitches.Inc()
				s.refreshFaultMetrics()
				enc.Encode(map[string]streamFault{"fault": {
					Cycle:            cycle,
					FaultySensors:    st.Faulty,
					FallbackExcluded: st.ActiveExcluded,
					Degraded:         st.Degraded,
				}})
				flush()
			}
			if st.Degraded {
				// More sensors failed than the fallbacks cover: every further
				// prediction would be garbage. End the session explicitly so
				// the client knows to stop trusting it.
				s.metrics.DegradedRequests.Inc()
				tn.tm.DegradedRequests.Inc()
				enc.Encode(map[string]string{"error": fmt.Sprintf(
					"degraded: %d sensors faulty (%v), no fallback covers them; session closed", len(st.Faulty), st.Faulty)})
				flush()
				return
			}
		}
		if !finite(f) {
			// JSON cannot carry the prediction, and the monitor must not
			// record it as the session's worst voltage.
			enc.Encode(map[string]string{"error": "prediction is not finite"})
			flush()
			return
		}
		events := mon.ProcessPredicted(cycle, f)
		tn.tm.AddPredictions(m.gen, 1)
		if emitVoltages {
			line = appendStreamVoltages(line[:0], cycle, f)
			w.Write(line)
		}
		for _, e := range events {
			switch e.Kind {
			case monitor.AlarmRaised:
				s.metrics.AlarmsRaised.Inc()
			case monitor.AlarmCleared:
				s.metrics.AlarmsCleared.Inc()
			}
			enc.Encode(streamEvent{Cycle: e.Cycle, Kind: e.Kind.String(), Block: e.Block, Voltage: e.Voltage})
		}
		if emitVoltages || len(events) > 0 {
			flush()
		}
	}
}
