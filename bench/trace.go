package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the harness's calls into each layer. Spans
// stay in memory until the run ends. A nil *tracer records nothing, so the
// same replay code serves traced and untraced callers.
type tracer struct {
	t0   time.Time
	next atomic.Int32

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
}

// span is one timed call. Parent 0 marks a root; Req ties the spans of one
// request together (0 outside the serving workloads).
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: make(map[string]float64)}
}

// do runs fn inside a span named name under parent. fn receives the span's
// id so nested calls can name it as their parent.
func (t *tracer) do(parent int32, name string, req int64, fn func(id int32)) {
	if t == nil {
		fn(0)
		return
	}
	id := t.next.Add(1)
	start := time.Since(t.t0)
	fn(id)
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: int64(start), End: int64(end)})
	t.mu.Unlock()
}

// add bumps a named counter recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// now is the tracer's clock, for spans whose interval the caller measured.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// record stores a span whose interval the caller measured on the tracer's
// clock (a client round trip whose replayed children follow it), returning
// its id.
func (t *tracer) record(parent int32, name string, req int64, start, end int64) int32 {
	id := t.next.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// layerTimes is the trace reduced to per-name self time.
type layerTimes struct {
	self  map[string]time.Duration // span duration minus the union of its children
	dur   map[string]time.Duration // total span duration
	count map[string]int
	// covered is the union of every non-root span's interval: how much of
	// the traced wall time some layer call accounts for.
	covered time.Duration
}

// analyze computes self times. A span's self time is its duration minus the
// union of its children's intervals; replayed children that ran after their
// parent (the serving replays) are subtracted the same way.
func (t *tracer) analyze() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := layerTimes{
		self:  make(map[string]time.Duration),
		dur:   make(map[string]time.Duration),
		count: make(map[string]int),
	}
	var nonRoot []span
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		lt.self[s.Name] += d - unionLen(children[s.ID])
		lt.dur[s.Name] += d
		lt.count[s.Name]++
		if s.Parent != 0 {
			nonRoot = append(nonRoot, s)
		}
	}
	lt.covered = unionLen(nonRoot)
	return lt
}

// unionLen is the total length of the union of the spans' intervals.
func unionLen(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.Start, s.End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
			continue
		}
		hi = max(hi, v[1])
	}
	total += hi - lo
	return time.Duration(total)
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	err = json.NewEncoder(w).Encode(t.spans)
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
