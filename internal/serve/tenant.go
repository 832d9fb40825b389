package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"sync"
	"sync/atomic"

	"voltsense/internal/core"
	"voltsense/internal/faults"
	"voltsense/internal/monitor"
	"voltsense/internal/online"
)

// TenantHeader is the HTTP header carrying the tenant (chip/floorplan) id.
// Resolution order: this header, the `tenant` query parameter, the request
// body's `tenant` field (where the body has one), then the configured
// default tenant.
const TenantHeader = "X-Voltsense-Tenant"

// model is one loaded predictor generation plus the session pool bound to
// it. Pooled monitors embed the generation's predictor, so swapping models
// swaps pools too and stale monitors simply age out with their generation.
// The guard (fault detector + fallback router) is likewise per-generation:
// a reload starts from an all-healthy diagnosis, since a new artifact may
// place different sensors.
type model struct {
	pred     *core.Predictor
	q, k     int
	gen      uint64
	pool     *sync.Pool       // of *monitor.Monitor with the server's default config
	guard    *faults.Guard    // nil when the artifact has no fallbacks
	injector *faults.Injector // nil without --fault-spec
	// prefix is the head of this generation's /v1/predict answers, up to
	// the voltages (predictPrefix).
	prefix []byte
	// adopt marks generations produced by an online promotion: in-flight
	// streams of the same shape switch to them mid-session (hysteresis
	// preserved via monitor.SetPredictor) instead of finishing on the old
	// coefficients. Reloaded artifacts keep adopt false — a reload may
	// place different sensors, so sessions finish on their generation.
	adopt bool
}

// adapterState binds one online.Adapter to the tenant generation lineage it
// was built from. Tenant rebuilds replace the whole state; a promotion
// attempt from a replaced (stale) adapter is refused by the ownership check
// in applySwap.
type adapterState struct {
	ad   *online.Adapter
	q, k int
}

// Tenant is one chip instance's complete runtime: its model generations,
// fault guard, online adapter, monitor pool, stream accounting, and
// metrics. Every piece of mutable serving state that was server-global in
// the single-chip design lives here, so tenants are isolated by
// construction — a fault diagnosed on one tenant, or a shadow model
// promoted on it, cannot touch any other.
//
// A Tenant is immutable in identity: registry rescans that find a changed
// artifact build a replacement Tenant rather than mutating this one, and
// in-flight streams finish on the runtime they started with.
type Tenant struct {
	id  string
	srv *Server

	cur atomic.Pointer[model]
	// swapMu serializes model swaps within the tenant (shadow promotions
	// and rollbacks).
	swapMu sync.Mutex

	// adapter is the tenant's recalibration loop (nil unless cfg.Adapt).
	adapter atomic.Pointer[adapterState]

	// injectCycle clocks --fault-spec injection for stateless /v1/predict
	// vectors; streams use their own session cycle numbers.
	injectCycle atomic.Int64

	// streams counts this tenant's open NDJSON sessions (cap + gauge).
	streams atomic.Int64

	// retired flips when a rescan replaced this tenant or the registry
	// evicted it; stale adapters then refuse to promote.
	retired atomic.Bool

	tm *TenantMetrics
}

// Generation returns the tenant's current model generation.
func (tn *Tenant) Generation() uint64 { return tn.cur.Load().gen }

// newTenant builds the full runtime for one tenant around pred: model,
// monitor pool, fault guard, chaos injector, and (with cfg.Adapt) the
// online adaptation loop.
func (s *Server) newTenant(id string, pred *core.Predictor) (*Tenant, error) {
	tn := &Tenant{id: id, srv: s}
	m, err := s.newModel(id, pred)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", id, err)
	}
	tn.cur.Store(m)
	if s.cfg.Adapt {
		st := &adapterState{q: m.q, k: m.k}
		ad, err := online.NewAdapter(pred, s.cfg.Adaptation, s.applySwap(tn, st))
		if err != nil {
			return nil, fmt.Errorf("tenant %s: adaptation: %w", id, err)
		}
		st.ad = ad
		tn.adapter.Store(st)
		if id == s.defaultID {
			s.initFeedbackLog(st.q, st.k)
		}
	}
	tn.tm = s.metrics.Tenant(id)
	s.metrics.TenantLoads.Inc()
	if id == s.defaultID {
		s.metrics.ModelGeneration.Set(int64(m.gen))
	}
	return tn, nil
}

func (s *Server) newModel(id string, pred *core.Predictor) (*model, error) {
	if pred == nil || pred.Model == nil {
		return nil, errors.New("serve: loader returned nil predictor")
	}
	q, k := pred.Model.NumInputs(), pred.Model.NumOutputs()
	// Construct one monitor eagerly so a bad alarm config (or degenerate
	// model shape) fails the swap instead of the first stream.
	first, err := monitor.New(pred, k, s.cfg.Monitor, nil)
	if err != nil {
		return nil, err
	}
	m := &model{pred: pred, q: q, k: k, gen: s.gen.Add(1)}
	m.prefix = predictPrefix(id, m.gen, k)
	m.pool = &sync.Pool{New: func() any {
		mon, err := monitor.New(pred, k, s.cfg.Monitor, nil)
		if err != nil {
			// Unreachable: the identical construction above succeeded.
			panic(err)
		}
		return mon
	}}
	m.pool.Put(first)
	if fb := pred.Fallbacks; fb != nil {
		det, err := faults.NewDetector(fb.Stats, s.cfg.Detector)
		if err != nil {
			return nil, fmt.Errorf("serve: fault detector: %w", err)
		}
		primary := faults.Route{Predict: pred.Predict}
		lookup := func(faulty []int) (faults.Route, bool) {
			fm := fb.Lookup(faulty)
			if fm == nil {
				return faults.Route{}, false
			}
			return faults.Route{Predict: fm.PredictFull, Excluded: fm.Excluded}, true
		}
		m.guard, err = faults.NewGuard(det, primary, lookup)
		if err != nil {
			return nil, fmt.Errorf("serve: fault guard: %w", err)
		}
	}
	if len(s.cfg.InjectFaults) > 0 {
		inj, err := faults.NewInjector(s.cfg.InjectFaults, q)
		if err != nil {
			return nil, fmt.Errorf("serve: fault injection: %w", err)
		}
		m.injector = inj
	}
	return m, nil
}

// applySwap returns the promotion callback for one tenant's adapter
// generation: it installs a candidate predictor as the tenant's serving
// model, refusing stale adapters (a rescan rebuilt or the registry evicted
// the tenant), and — for shadow promotions, never operator rollbacks —
// refusing while the tenant's fault tier has diagnosed sensors or entered
// degraded mode, so a generation fit on corrupt readings can never be
// promoted.
func (s *Server) applySwap(tn *Tenant, owner *adapterState) online.ApplyFunc {
	return func(p *core.Predictor, rollback bool) error {
		tn.swapMu.Lock()
		defer tn.swapMu.Unlock()
		if tn.retired.Load() {
			return errors.New("serve: tenant reloaded since this adapter was built; promotion abandoned")
		}
		if tn.adapter.Load() != owner {
			return errors.New("serve: model reloaded since this adapter was built; promotion abandoned")
		}
		cur := tn.cur.Load()
		if !rollback && cur.guard != nil {
			st := cur.guard.Snapshot()
			if st.Degraded {
				return fmt.Errorf("serve: refusing promotion while degraded (%d sensors faulty)", len(st.Faulty))
			}
			if len(st.Faulty) > 0 {
				return fmt.Errorf("serve: refusing promotion while sensors %v are faulty", st.Faulty)
			}
		}
		m, err := s.newModel(tn.id, p)
		if err != nil {
			return err
		}
		m.adopt = true
		tn.cur.Store(m)
		if tn.id == s.defaultID {
			s.metrics.ModelGeneration.Set(int64(m.gen))
		}
		return nil
	}
}

// resolveTenant routes a request to its tenant: the X-Voltsense-Tenant
// header, then the `tenant` query parameter, then bodyTenant (the decoded
// request body's field, where the endpoint has a body), then the default
// tenant. A cold tenant is loaded on first touch (single-flight); unknown
// ids 404 and broken artifacts 500 without disturbing any other tenant.
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request, bodyTenant string) (*Tenant, bool) {
	id := r.Header.Get(TenantHeader)
	if id == "" {
		id = r.URL.Query().Get("tenant")
	}
	if id == "" {
		id = bodyTenant
	}
	if id == "" {
		id = s.defaultID
	}
	v, err := s.reg.Get(id)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			httpError(w, http.StatusNotFound, "unknown tenant %q: no artifact in the model registry", id)
		} else {
			httpError(w, http.StatusInternalServerError, "tenant %q failed to load: %v", id, err)
		}
		return nil, false
	}
	return v.(*Tenant), true
}

// tenantForShed finds the resident tenant a shed request was aimed at
// without loading anything: shed attribution must never create tenant
// labels (or trigger artifact loads) for arbitrary ids under overload.
func (s *Server) tenantForShed(r *http.Request) *Tenant {
	id := r.Header.Get(TenantHeader)
	if id == "" {
		id = r.URL.Query().Get("tenant")
	}
	if id == "" {
		id = s.defaultID
	}
	if v, ok := s.reg.Peek(id); ok {
		return v.(*Tenant)
	}
	return nil
}

// residentTenants snapshots the currently loaded tenants in id order.
func (s *Server) residentTenants() []*Tenant {
	ids := s.reg.Resident()
	out := make([]*Tenant, 0, len(ids))
	for _, id := range ids {
		if v, ok := s.reg.Peek(id); ok {
			out = append(out, v.(*Tenant))
		}
	}
	return out
}

// refreshFaultMetrics republishes the fleet-wide fault gauges (sums over
// resident tenants) after any tenant's guard changed state.
func (s *Server) refreshFaultMetrics() {
	var faulty, excluded int64
	for _, tn := range s.residentTenants() {
		if m := tn.cur.Load(); m.guard != nil {
			st := m.guard.Snapshot()
			faulty += int64(len(st.Faulty))
			excluded += int64(len(st.ActiveExcluded))
		}
	}
	s.metrics.FaultySensors.Set(faulty)
	s.metrics.ActiveFallback.Set(excluded)
}

// tenantSnapshots feeds the scrape-time per-tenant gauges: cardinality is
// exactly the resident tenant set, so evictions shrink the exposition
// instead of growing it without bound.
func (s *Server) tenantSnapshots() []TenantSnapshot {
	tenants := s.residentTenants()
	out := make([]TenantSnapshot, 0, len(tenants))
	for _, tn := range tenants {
		m := tn.cur.Load()
		snap := TenantSnapshot{
			ID:            tn.id,
			Generation:    m.gen,
			ActiveStreams: tn.streams.Load(),
		}
		if m.guard != nil {
			st := m.guard.Snapshot()
			snap.FaultySensors = len(st.Faulty)
			snap.Degraded = st.Degraded
		}
		out = append(out, snap)
	}
	return out
}
