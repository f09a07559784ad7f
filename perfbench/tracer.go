package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// service request share ID (the client span) as Parent (the handler span).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the run began
	Dur    float64 `json:"dur_s"`
	Attr   string  `json:"attr,omitempty"`
}

// tracer keeps spans in memory; write dumps them when the run ends, so
// recording costs an append under a mutex and no I/O.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

// newID reserves a span ID (for a parent whose children record first).
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span; id 0 takes a fresh ID.
func (t *tracer) record(id, parent int64, name string, start time.Time, dur time.Duration, attr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.base).Seconds(), Dur: dur.Seconds(), Attr: attr})
}

// timeCall runs fn as a span named name when b is traced, and returns its
// wall time either way.
func (b *bench) timeCall(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if b.tr != nil {
		b.tr.record(0, 0, name, start, d, "")
	}
	return d, err
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
