package main

import (
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: name, start,
// end (ns since the recorder started) and the span that caused it. Spans
// of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory until the run ends. A nil recorder is
// off: start returns 0 and end does nothing, so untraced code pays one
// nil check per boundary.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its ID (IDs start at 1; 0 = no parent).
func (r *recorder) start(name, req string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *recorder) timed(name, req string, parent int, fn func() error) error {
	id := r.start(name, req, parent)
	defer r.end(id)
	return fn()
}

// all returns a copy of the closed spans.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations in ms of every closed span called name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.all() {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}
