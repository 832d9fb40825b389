// Package registry keys the fleet: a cache of per-tenant runtime values
// (one per chip/floorplan id) built on demand from an artifact store. The
// paper fits one predictor per chip instance; a fleet server hosts many of
// them at once, and this package decides which ones are resident.
//
// The registry is deliberately agnostic about what it caches — the serve
// layer stores its whole per-tenant runtime (predictor, fault guard, online
// adapter, monitor pool) as the value — and about where artifacts live: a
// Source supplies List/Stat/Load functions, with Dir providing the standard
// filesystem layout (<dir>/<tenant-id>.json).
//
// Semantics:
//
//   - Get is single-flight: concurrent first requests for a cold tenant
//     trigger exactly one Source.Load; the rest wait for it.
//   - The cache is LRU-bounded by Capacity. The Pinned id (the default
//     tenant) is never evicted, no matter how idle.
//   - Rescan re-stats every resident tenant and atomically swaps only those
//     whose fingerprint changed; untouched tenants keep their value — and
//     with it any accumulated runtime state. Artifacts that vanished are
//     retired; artifacts that fail to load keep their previous value
//     serving and are reported as failed.
//   - EvictIdle retires tenants that have not been touched within a TTL,
//     bounding memory (and metric cardinality) on long-tailed fleets.
package registry

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Source supplies artifacts to the registry. Load builds the cached value
// for one id and reports the fingerprint of the bytes it consumed; Stat
// returns the current fingerprint without loading, so Rescan can skip
// unchanged tenants. Both report fs.ErrNotExist (possibly wrapped) for ids
// that are not in the store.
type Source struct {
	// List enumerates the ids currently in the store. Optional; used for
	// startup validation and operator introspection, never to preload.
	List func() ([]string, error)
	// Stat returns a cheap fingerprint for the id's artifact. Required.
	Stat func(id string) (string, error)
	// Load builds the value and returns the fingerprint it was built from.
	// Required.
	Load func(id string) (value any, fingerprint string, err error)
}

// Config parameterizes a Registry.
type Config struct {
	Source Source
	// Pinned is the id exempt from every eviction path (the default
	// tenant). It may be empty.
	Pinned string
	// Capacity bounds resident tenants; past it the least-recently-used
	// unpinned tenant is retired. Default 64.
	Capacity int
	// OnRetire, when non-nil, observes every value leaving the cache:
	// capacity/idle eviction and removal (replaced=false) or a Rescan swap
	// (replaced=true). Called without registry locks held; it must not call
	// back into the Registry.
	OnRetire func(id string, value any, replaced bool)
}

type entry struct {
	value any
	fp    string
	seq   uint64    // recency rank; larger = more recent
	last  time.Time // wall-clock recency for EvictIdle
}

// call is one in-flight single-flight load.
type call struct {
	done chan struct{}
	v    any
	err  error
}

// Registry is the LRU-bounded tenant cache. All methods are safe for
// concurrent use.
type Registry struct {
	cfg Config

	mu       sync.Mutex
	seq      uint64
	entries  map[string]*entry
	inflight map[string]*call

	rescanMu sync.Mutex // serializes Rescan passes

	evictions atomic.Uint64
}

// New validates cfg and builds an empty registry.
func New(cfg Config) (*Registry, error) {
	if cfg.Source.Stat == nil || cfg.Source.Load == nil {
		return nil, errors.New("registry: Source.Stat and Source.Load are required")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	return &Registry{
		cfg:      cfg,
		entries:  make(map[string]*entry),
		inflight: make(map[string]*call),
	}, nil
}

// Get returns the value for id, loading it on a miss. Concurrent misses for
// the same id share one load. Loading an id past Capacity retires the
// least-recently-used unpinned tenant.
func (r *Registry) Get(id string) (any, error) {
	r.mu.Lock()
	if e, ok := r.entries[id]; ok {
		r.seq++
		e.seq = r.seq
		e.last = time.Now()
		v := e.value
		r.mu.Unlock()
		return v, nil
	}
	if c, ok := r.inflight[id]; ok {
		r.mu.Unlock()
		<-c.done
		return c.v, c.err
	}
	c := &call{done: make(chan struct{})}
	r.inflight[id] = c
	r.mu.Unlock()

	v, fp, err := r.cfg.Source.Load(id)

	var retired []retiredEntry
	r.mu.Lock()
	delete(r.inflight, id)
	if err == nil {
		r.seq++
		r.entries[id] = &entry{value: v, fp: fp, seq: r.seq, last: time.Now()}
		retired = r.evictOverCapacityLocked()
	}
	r.mu.Unlock()
	c.v, c.err = v, err
	close(c.done)
	r.retire(retired, false)
	return v, err
}

// Peek returns the resident value without loading or touching recency.
func (r *Registry) Peek(id string) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, false
	}
	return e.value, true
}

// Resident returns the resident ids in sorted order.
func (r *Registry) Resident() []string {
	r.mu.Lock()
	ids := make([]string, 0, len(r.entries))
	for id := range r.entries {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Len reports the number of resident tenants.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Evictions reports cumulative capacity/idle evictions and removals.
func (r *Registry) Evictions() uint64 { return r.evictions.Load() }

type retiredEntry struct {
	id string
	v  any
}

// evictOverCapacityLocked trims the cache to Capacity, least-recently-used
// first, never touching the pinned id. Caller holds r.mu; returned entries
// must be passed to retire after unlocking.
func (r *Registry) evictOverCapacityLocked() []retiredEntry {
	var out []retiredEntry
	for len(r.entries) > r.cfg.Capacity {
		victim := ""
		var vseq uint64
		for id, e := range r.entries {
			if id == r.cfg.Pinned {
				continue
			}
			if victim == "" || e.seq < vseq {
				victim, vseq = id, e.seq
			}
		}
		if victim == "" {
			return out // only the pinned tenant left
		}
		out = append(out, retiredEntry{victim, r.entries[victim].value})
		delete(r.entries, victim)
	}
	return out
}

func (r *Registry) retire(list []retiredEntry, replaced bool) {
	for _, re := range list {
		if !replaced {
			r.evictions.Add(1)
		}
		if r.cfg.OnRetire != nil {
			r.cfg.OnRetire(re.id, re.v, replaced)
		}
	}
}

// EvictIdle retires every unpinned tenant whose last Get is older than
// maxIdle, returning the retired ids in sorted order.
func (r *Registry) EvictIdle(maxIdle time.Duration) []string {
	cutoff := time.Now().Add(-maxIdle)
	var retired []retiredEntry
	r.mu.Lock()
	for id, e := range r.entries {
		if id == r.cfg.Pinned || !e.last.Before(cutoff) {
			continue
		}
		retired = append(retired, retiredEntry{id, e.value})
	}
	for _, re := range retired {
		delete(r.entries, re.id)
	}
	r.mu.Unlock()
	sort.Slice(retired, func(i, j int) bool { return retired[i].id < retired[j].id })
	r.retire(retired, false)
	ids := make([]string, len(retired))
	for i, re := range retired {
		ids[i] = re.id
	}
	return ids
}

// RescanResult reports what one Rescan pass did.
type RescanResult struct {
	// Reloaded tenants had a changed fingerprint and were atomically
	// swapped to a freshly loaded value.
	Reloaded []string
	// Removed tenants' artifacts vanished from the store.
	Removed []string
	// Failed maps tenants whose reload errored; their previous value keeps
	// serving.
	Failed map[string]error
}

// Err flattens Failed into one error, or nil when the pass was clean.
func (res RescanResult) Err() error {
	if len(res.Failed) == 0 {
		return nil
	}
	ids := make([]string, 0, len(res.Failed))
	for id := range res.Failed {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	errs := make([]error, 0, len(ids))
	for _, id := range ids {
		errs = append(errs, fmt.Errorf("tenant %s: %w", id, res.Failed[id]))
	}
	return errors.Join(errs...)
}

// Rescan re-stats every resident tenant against the store and atomically
// swaps only those whose fingerprint changed. Untouched tenants are not
// rebuilt — they keep their value and every bit of runtime state hanging
// off it. Vanished artifacts are retired; failed reloads keep the previous
// value serving. Passes are serialized; Get keeps working throughout.
func (r *Registry) Rescan() RescanResult {
	r.rescanMu.Lock()
	defer r.rescanMu.Unlock()
	res := RescanResult{Failed: make(map[string]error)}

	r.mu.Lock()
	ids := make([]string, 0, len(r.entries))
	fps := make(map[string]string, len(r.entries))
	for id, e := range r.entries {
		ids = append(ids, id)
		fps[id] = e.fp
	}
	r.mu.Unlock()
	sort.Strings(ids)

	for _, id := range ids {
		fp, err := r.cfg.Source.Stat(id)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				r.mu.Lock()
				e := r.entries[id]
				delete(r.entries, id)
				r.mu.Unlock()
				if e != nil {
					res.Removed = append(res.Removed, id)
					r.retire([]retiredEntry{{id, e.value}}, false)
				}
				continue
			}
			res.Failed[id] = err
			continue
		}
		if fp == fps[id] {
			continue
		}
		v, newFp, err := r.cfg.Source.Load(id)
		if err != nil {
			res.Failed[id] = err
			continue
		}
		r.mu.Lock()
		old := r.entries[id]
		r.seq++
		r.entries[id] = &entry{value: v, fp: newFp, seq: r.seq, last: time.Now()}
		r.mu.Unlock()
		res.Reloaded = append(res.Reloaded, id)
		if old != nil {
			r.retire([]retiredEntry{{id, old.value}}, true)
		}
	}
	return res
}

// Refresh force-reloads one tenant from the store regardless of its
// fingerprint: a resident value is atomically swapped (the old value retires
// as replaced), an absent one is loaded as by Get. Unlike Rescan it targets
// a single id, so a calibration write does not pay a full-store stat sweep.
// When the artifact has vanished, a resident entry is evicted — matching
// Rescan's removal semantics — and the load error is returned.
func (r *Registry) Refresh(id string) error {
	v, fp, err := r.cfg.Source.Load(id)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			r.mu.Lock()
			e := r.entries[id]
			delete(r.entries, id)
			r.mu.Unlock()
			if e != nil {
				r.retire([]retiredEntry{{id, e.value}}, false)
			}
		}
		return err
	}
	var retired []retiredEntry
	r.mu.Lock()
	old := r.entries[id]
	r.seq++
	r.entries[id] = &entry{value: v, fp: fp, seq: r.seq, last: time.Now()}
	retired = r.evictOverCapacityLocked()
	r.mu.Unlock()
	if old != nil {
		r.retire([]retiredEntry{{id, old.value}}, true)
	}
	r.retire(retired, false)
	return nil
}

// ValidID reports whether id is acceptable as a tenant id: 1-64 characters
// from [A-Za-z0-9._-], not starting with a dot or dash (which also rules
// out path traversal through the Dir layout).
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	if id[0] == '.' || id[0] == '-' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Dir is the standard filesystem artifact layout: one JSON artifact per
// tenant — a full voltsense-predictor/v1 model, or a thin voltsense-delta/v1
// that the serve layer resolves against its pinned prior — named <id>.json,
// flat in one directory.
type Dir struct{ Path string }

// File maps a tenant id to its artifact path, rejecting invalid ids before
// they can reach the filesystem.
func (d Dir) File(id string) (string, error) {
	if !ValidID(id) {
		return "", fmt.Errorf("registry: invalid tenant id %q: %w", id, fs.ErrNotExist)
	}
	return filepath.Join(d.Path, id+".json"), nil
}

// List enumerates the tenant ids present in the directory.
func (d Dir) List() ([]string, error) {
	ents, err := os.ReadDir(d.Path)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if ValidID(id) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Stat fingerprints a tenant's artifact as size plus mtime. Writers must
// replace artifacts atomically (write a temp file, then rename) for the
// fingerprint to be trustworthy.
func (d Dir) Stat(id string) (string, error) {
	p, err := d.File(id)
	if err != nil {
		return "", err
	}
	fi, err := os.Stat(p)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d-%d", fi.Size(), fi.ModTime().UnixNano()), nil
}
