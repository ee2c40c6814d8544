package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"voltnoise/internal/service"
	"voltnoise/internal/service/store"
)

// span is one timed interval at a layer boundary. Spans of one traced
// operation share its root: client spans name their parent directly,
// server spans find it through the request hash the client registered.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	hash   string
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. All methods
// are safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
	roots map[string]int64  // request hash -> root span of the traced cold job in flight
	jobs  map[string]string // request hash -> job id
	// Every store call, traced operation or not: durations in µs and
	// the hit count behind the hit ratio.
	getUs, putUs []float64
	hits         int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), roots: map[string]int64{}, jobs: map[string]string{}}
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.epoch)) / 1e3 }

// open allocates a root span id; a non-empty hash registers it so
// server-side wrappers attach their spans to it.
func (t *tracer) open(hash string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	if hash != "" {
		t.roots[hash] = t.next
	}
	return t.next
}

func (t *tracer) closeOp(hash string) {
	t.mu.Lock()
	delete(t.roots, hash)
	t.mu.Unlock()
}

func (t *tracer) parent(hash string) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.roots[hash]
	return id, ok
}

// job records which job served a request hash.
func (t *tracer) job(hash, id string) {
	t.mu.Lock()
	t.jobs[hash] = id
	t.mu.Unlock()
}

// add records a span; id 0 allocates a fresh one.
func (t *tracer) add(id, parent int64, name, hash string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.us(start), End: t.us(end), hash: hash})
}

// tracedRunner times service.Runner.Run for traced jobs.
type tracedRunner struct {
	inner service.Runner
	t     *tracer
}

func (r *tracedRunner) Run(ctx context.Context, req *service.Request) (any, error) {
	hash, err := req.Hash()
	if err != nil {
		return r.inner.Run(ctx, req)
	}
	parent, ok := r.t.parent(hash)
	if !ok {
		return r.inner.Run(ctx, req)
	}
	t0 := time.Now()
	p, err := r.inner.Run(ctx, req)
	r.t.add(0, parent, "runner", hash, t0, time.Now())
	return p, err
}

// tracedStore times every store.Store call and adds spans for traced
// jobs. The server's first Get of a submission happens at acceptance,
// so its end marks when the job was accepted.
type tracedStore struct {
	inner store.Store
	t     *tracer
}

func (s *tracedStore) Get(hash string) ([]byte, bool, error) {
	t0 := time.Now()
	v, ok, err := s.inner.Get(hash)
	t1 := time.Now()
	s.t.mu.Lock()
	s.t.getUs = append(s.t.getUs, float64(t1.Sub(t0))/1e3)
	if ok {
		s.t.hits++
	}
	s.t.mu.Unlock()
	if parent, traced := s.t.parent(hash); traced {
		s.t.add(0, parent, "store.get", hash, t0, t1)
	}
	return v, ok, err
}

func (s *tracedStore) Put(hash string, value []byte) error {
	t0 := time.Now()
	err := s.inner.Put(hash, value)
	t1 := time.Now()
	s.t.mu.Lock()
	s.t.putUs = append(s.t.putUs, float64(t1.Sub(t0))/1e3)
	s.t.mu.Unlock()
	if parent, traced := s.t.parent(hash); traced {
		s.t.add(0, parent, "store.put", hash, t0, t1)
	}
	return err
}

func (s *tracedStore) Len() int     { return s.inner.Len() }
func (s *tracedStore) Close() error { return s.inner.Close() }

// selfTime is a span's duration minus the part of its interval that
// its children cover (overlapping children count once).
func selfTime(s span, children []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := 0.0, s.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.dur() - covered
}

// selfTimes returns every span's self time in µs, grouped by span name.
func selfTimes(spans []span) map[string][]float64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], selfTime(s, kids[s.ID]))
	}
	return out
}

// serviceTimes derives the service layer's phases from the spans of
// traced cold jobs, in ms: queue (acceptance, the end of the
// submission's store lookup, until Runner.Run is entered), run, and
// deliver (Run returns until the client holds verified bytes).
func serviceTimes(spans []span) (queue, run, deliver []float64) {
	byParent := map[int64]map[string]span{}
	roots := map[int64]span{}
	for _, s := range spans {
		if s.Name == "job" {
			roots[s.ID] = s
		}
		if s.Parent == 0 {
			continue
		}
		m := byParent[s.Parent]
		if m == nil {
			m = map[string]span{}
			byParent[s.Parent] = m
		}
		if prev, ok := m[s.Name]; !ok || s.Start < prev.Start {
			m[s.Name] = s // first store.get is the acceptance lookup
		}
	}
	for id, root := range roots {
		r, ok := byParent[id]["runner"]
		if !ok {
			continue
		}
		run = append(run, r.dur()/1e3)
		deliver = append(deliver, (root.End-r.End)/1e3)
		if g, ok := byParent[id]["store.get"]; ok {
			queue = append(queue, (r.Start-g.End)/1e3)
		}
	}
	return queue, run, deliver
}

// writeSpans writes the spans as JSON lines, each server span resolved
// to its job id.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		s.Job = t.jobs[s.hash]
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func (t *tracer) named(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur()/1e3)
		}
	}
	return out
}
