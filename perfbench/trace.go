package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"elfie/internal/store"
)

// tracer records spans around the benchmark's calls into the program's
// public functions. Spans stay in memory and are written once, at the end,
// as trace-event JSON. A nil *tracer records nothing, so one code path
// serves the traced and the untraced run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	pass  string
	stack []int // open spans on the benchmark's own goroutine
	spans []span
}

// span is one call into a layer. Work counters ride on the span so rates
// are computed where the work happens.
type span struct {
	Name   string
	Pass   string
	Parent int // index into spans, -1 for a root
	Start  time.Duration
	End    time.Duration
	Leaf   bool   // recorded from a worker goroutine (store calls)
	Instr  uint64 // guest instructions retired inside the span
	Bytes  int64  // artifact bytes produced or moved
	Count  int64  // layer-specific work count (lint steps)
	Miss   bool   // store.get that found nothing
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setPass starts a new pass: spans opened from now on carry its ID.
func (t *tracer) setPass(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pass = id
	t.mu.Unlock()
}

// begin opens a span on the benchmark's goroutine, nested under the span
// open there.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.open(name, false)
	t.stack = append(t.stack, id)
	return id
}

// leaf opens a span from any goroutine, parented to the span open on the
// benchmark's goroutine; it never becomes a parent itself.
func (t *tracer) leaf(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open(name, true)
}

func (t *tracer) open(name string, leaf bool) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Pass: t.pass, Parent: parent,
		Start: time.Since(t.t0), Leaf: leaf,
	})
	return len(t.spans) - 1
}

// end closes a span and applies edit, if any, to its counters.
func (t *tracer) end(id int, edit func(*span)) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	if edit != nil {
		edit(s)
	}
	if !s.Leaf {
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// layerStats sums one span name's spans within one pass.
type layerStats struct {
	Spans  int
	Total  time.Duration
	Self   time.Duration
	Instr  uint64
	Bytes  int64
	Count  int64
	Misses int
}

// summary returns, per pass and span name, the summed span time and self
// time: a span's duration minus the part of it its child spans cover.
func (t *tracer) summary() map[string]map[string]*layerStats {
	kids := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]map[string]*layerStats{}
	for i, s := range t.spans {
		byName := out[s.Pass]
		if byName == nil {
			byName = map[string]*layerStats{}
			out[s.Pass] = byName
		}
		ls := byName[s.Name]
		if ls == nil {
			ls = &layerStats{}
			byName[s.Name] = ls
		}
		d := s.End - s.Start
		ls.Spans++
		ls.Total += d
		ls.Self += d - t.covered(kids[i], s.Start, s.End)
		ls.Instr += s.Instr
		ls.Bytes += s.Bytes
		ls.Count += s.Count
		if s.Miss {
			ls.Misses++
		}
	}
	return out
}

// covered is the length of the union of the child spans' intervals,
// clipped to [lo, hi]. Leaf children from worker goroutines may overlap.
func (t *tracer) covered(children []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(t.spans[c].Start, lo), min(t.spans[c].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// writeJSON writes the spans as Chrome trace-event JSON ("X" complete
// events, microseconds), plus the per-pass self-time summary.
func (t *tracer) writeJSON(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		tid := 1
		if s.Leaf {
			tid = 2
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Pass, Ph: "X",
			Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: tid,
			Args: map[string]any{
				"id": i, "parent": s.Parent, "pass": s.Pass,
				"instr": s.Instr, "bytes": s.Bytes,
			},
		})
	}
	self := map[string]map[string]float64{}
	for pass, byName := range t.summary() {
		self[pass] = map[string]float64{}
		for name, ls := range byName {
			self[pass][name] = ls.Self.Seconds()
		}
	}
	data, err := json.MarshalIndent(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"selfSeconds":     self,
	}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedStore wraps the store.Cache that pinpoints.Config.Store accepts,
// timing every call and counting the bytes it moves.
type tracedStore struct {
	store.Cache
	tr *tracer
}

func fileSetBytes(fs store.FileSet) int64 {
	var n int64
	for _, b := range fs {
		n += int64(len(b))
	}
	return n
}

func (s *tracedStore) Get(key string) (store.FileSet, *store.Entry, bool, error) {
	id := s.tr.leaf("store.get")
	files, e, ok, err := s.Cache.Get(key)
	s.tr.end(id, func(sp *span) { sp.Bytes, sp.Miss = fileSetBytes(files), !ok })
	return files, e, ok, err
}

func (s *tracedStore) Put(key, kind string, files store.FileSet) (*store.Entry, error) {
	id := s.tr.leaf("store.put")
	e, err := s.Cache.Put(key, kind, files)
	s.tr.end(id, func(sp *span) { sp.Bytes = fileSetBytes(files) })
	return e, err
}

func (s *tracedStore) PutChunked(key, kind string, files store.FileSet, chunkSize int) (*store.Entry, error) {
	id := s.tr.leaf("store.put")
	e, err := s.Cache.PutChunked(key, kind, files, chunkSize)
	s.tr.end(id, func(sp *span) { sp.Bytes = fileSetBytes(files) })
	return e, err
}
