package main

import (
	"testing"
	"time"
)

func ms_(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "http.roundtrip", Start: ms_(0), End: ms_(100)},
		{ID: 2, Parent: 1, Name: "serve.handler", Start: ms_(10), End: ms_(90)},
		// Two parallel fetches overlapping on [30,40]: covered once.
		{ID: 3, Parent: 2, Name: "peernet.call", Start: ms_(20), End: ms_(40)},
		{ID: 4, Parent: 2, Name: "peernet.call", Start: ms_(30), End: ms_(50)},
		// A child sticking out of its parent counts only inside it.
		{ID: 5, Parent: 2, Name: "peernet.call", Start: ms_(85), End: ms_(95)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: ms_(20), 2: ms_(80 - 30 - 5), 3: ms_(20), 4: ms_(20), 5: ms_(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	iv := [][2]time.Duration{{ms_(5), ms_(10)}, {ms_(0), ms_(3)}, {ms_(8), ms_(12)}, {ms_(20), ms_(30)}}
	if got := covered(iv, 0, ms_(25)); got != ms_(3+7+5) {
		t.Errorf("covered = %v, want 15ms", got)
	}
	if got := covered(nil, 0, ms_(10)); got != 0 {
		t.Errorf("covered(nil) = %v", got)
	}
}

func TestAssembleAndLayerSelf(t *testing.T) {
	spans := []span{
		{Req: 1, ID: 10, Name: "http.roundtrip", Start: ms_(0), End: ms_(10)},
		{Req: 1, ID: 11, Parent: 10, Name: "serve.handler", Start: ms_(1), End: ms_(9)},
		{Req: 1, ID: 12, Parent: 11, Name: "peernet.call", Start: ms_(2), End: ms_(5)},
		{Req: 1, ID: 13, Parent: 11, Name: "peernet.call", Start: ms_(3), End: ms_(6)},
		{Req: 2, ID: 20, Name: "http.roundtrip", Start: ms_(20), End: ms_(30)},
		{Req: 2, ID: 21, Parent: 20, Name: "serve.handler", Start: ms_(21), End: ms_(29)},
		// request 3 is a write: not a query
		{Req: 3, ID: 30, Name: "http.roundtrip", Start: ms_(40), End: ms_(41)},
	}
	var hit, patched counters
	hit[cAnswerNanos] = int64(ms_(7))
	hit[cAnsHits] = 1
	patched[cAnswerNanos] = int64(ms_(6))
	patched[cPatched] = 1
	qs := assemble(spans, []route{{req: 1, delta: hit}, {req: 2, delta: patched}, {req: 3}}, map[int64]bool{1: true, 2: true})
	if len(qs) != 2 {
		t.Fatalf("%d query traces, want 2", len(qs))
	}
	if qs[0].remote != ms_(4) || qs[0].calls != 2 || qs[0].callTime != ms_(6) {
		t.Errorf("query 1: remote %v calls %d callTime %v; want 4ms, 2, 6ms", qs[0].remote, qs[0].calls, qs[0].callTime)
	}
	pm := phaseMeans{snapLocal: ms_(1), forquery: ms_(1), fingerprint: ms_(1), corePCA: ms_(100)}
	self := layerSelf(qs, pm, false)
	// Query 1 (a cache hit): http 2ms, serve 8-7=1ms, peernet 4ms remote,
	// and its 3ms local time split 1:2 between snapshot (peernet) and
	// slice. Query 2 (patched): http 2ms, serve 2ms, 6ms incremental.
	// The layers report means over the two queries.
	want := map[string]time.Duration{
		layerHTTP:        ms_(2),
		layerServe:       1500 * time.Microsecond,
		layerPeernet:     2500 * time.Microsecond,
		layerSlice:       ms_(1),
		layerIncremental: ms_(3),
		layerCoreRepair:  0,
	}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("layer %s self %v, want %v", l, self[l], w)
		}
	}
	if top := topLayer(self); top != layerIncremental {
		t.Errorf("top layer %s, want %s", top, layerIncremental)
	}
}
