package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced request: a client round trip,
// the server handler, one peernet call, or one replayed phase. Spans of
// one request share Req; Parent is the id of the span that caused it
// (0 for a root). Times are offsets from the tracer's epoch.
type span struct {
	Req    int64         `json:"req"`
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. The traced phase
// drives one request at a time, so the span that encloses the peernet
// calls made right now is a single value (cur), set by whoever opens
// it: the handler wrapper or a replay step.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	cur   atomic.Int64 // id of the span enclosing peernet calls
	req   atomic.Int64 // request id of cur

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

// record stores a finished span.
func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// enter makes id (of request req) the span enclosing the peernet calls
// that follow, and returns a function restoring the previous one.
func (t *tracer) enter(req, id int64) (leave func()) {
	prevReq, prev := t.req.Swap(req), t.cur.Swap(id)
	return func() {
		t.req.Store(prevReq)
		t.cur.Store(prev)
	}
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSON writes every span to path, creating its directory.
func (t *tracer) writeJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// covered returns the total length of the union of the intervals,
// clipped to [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(iv))
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e > s {
			clipped = append(clipped, [2]time.Duration{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curS, curE time.Duration
	open := false
	for _, x := range clipped {
		if open && x[0] <= curE {
			curE = max(curE, x[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children (the
// node fetches peers in parallel) count once; a child sticking out of
// its parent counts only inside it.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return out
}
