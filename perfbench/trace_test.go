package main

import (
	"sync"
	"testing"
	"time"
)

// TestSelfTime checks that a span's self time excludes the union of its
// children, counting overlapping leaf spans from worker goroutines once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	ms := time.Millisecond
	tr.spans = []span{
		{Name: "pass", Pass: "p", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "pinpoints.prepare", Pass: "p", Parent: 0, Start: 10 * ms, End: 60 * ms},
		{Name: "store.get", Pass: "p", Parent: 1, Start: 20 * ms, End: 40 * ms, Leaf: true},
		{Name: "store.get", Pass: "p", Parent: 1, Start: 30 * ms, End: 50 * ms, Leaf: true},
		{Name: "store.put", Pass: "p", Parent: 1, Start: 55 * ms, End: 70 * ms, Leaf: true},
	}
	sum := tr.summary()["p"]
	for name, want := range map[string]time.Duration{
		"pass":              50 * ms,
		"pinpoints.prepare": 15 * ms, // 50 minus [20,50) and [55,60)
		"store.get":         40 * ms,
		"store.put":         15 * ms,
	} {
		if got := sum[name].Self; got != want {
			t.Errorf("%s self = %v, want %v", name, got, want)
		}
	}
}

// TestConcurrentLeaves records leaf spans from several goroutines under
// one parent, as the traced store does from farm workers.
func TestConcurrentLeaves(t *testing.T) {
	tr := newTracer()
	tr.setPass("p")
	parent := tr.begin("pinpoints.prepare")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := tr.leaf("store.get")
				tr.end(id, func(sp *span) { sp.Bytes = 1 })
			}
		}()
	}
	wg.Wait()
	tr.end(parent, nil)

	ls := tr.summary()["p"]["store.get"]
	if ls.Spans != 400 || ls.Bytes != 400 {
		t.Fatalf("store.get: %d spans, %d bytes; want 400 and 400", ls.Spans, ls.Bytes)
	}
	for _, s := range tr.spans[1:] {
		if s.Parent != parent {
			t.Fatalf("leaf parent %d, want %d", s.Parent, parent)
		}
	}
	if len(tr.stack) != 0 {
		t.Fatalf("open spans left: %v", tr.stack)
	}
}
