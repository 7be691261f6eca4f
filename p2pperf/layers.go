package main

import (
	"sort"
	"time"
)

// queryTrace is one traced /query request reassembled from its spans
// and from the counter movement its handler saw.
type queryTrace struct {
	roundtrip, handler time.Duration
	// remote is the part of the handler interval covered by peernet
	// calls (parallel fetches count once); calls is their number and
	// callTime their summed duration.
	remote, callTime time.Duration
	calls            int
	// answer is the time serve.Server spent in Node.AnswerQuery (the
	// serve_query_latency observation of this request).
	answer time.Duration
	delta  counters
}

// assemble groups spans and routes by request and returns one
// queryTrace per request in queries that has a complete round trip.
func assemble(spans []span, routes []route, queries map[int64]bool) []queryTrace {
	type parts struct {
		rt, h    *span
		calls    []span
		hasRoute bool
		delta    counters
	}
	by := map[int64]*parts{}
	get := func(req int64) *parts {
		p := by[req]
		if p == nil {
			p = &parts{}
			by[req] = p
		}
		return p
	}
	for i := range spans {
		s := &spans[i]
		if !queries[s.Req] {
			continue
		}
		switch s.Name {
		case "http.roundtrip":
			get(s.Req).rt = s
		case "serve.handler":
			get(s.Req).h = s
		case "peernet.call":
			p := get(s.Req)
			p.calls = append(p.calls, *s)
		}
	}
	for _, r := range routes {
		if queries[r.req] {
			p := get(r.req)
			p.hasRoute, p.delta = true, r.delta
		}
	}
	reqs := make([]int64, 0, len(by))
	for req := range by {
		reqs = append(reqs, req)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	self := selfTimes(spans)
	var out []queryTrace
	for _, req := range reqs {
		p := by[req]
		if p.rt == nil || p.h == nil || !p.hasRoute {
			continue
		}
		q := queryTrace{roundtrip: p.rt.dur(), handler: p.h.dur(), calls: len(p.calls),
			remote: p.h.dur() - self[p.h.ID],
			answer: time.Duration(p.delta[cAnswerNanos]), delta: p.delta}
		for _, c := range p.calls {
			q.callTime += c.dur()
		}
		out = append(out, q)
	}
	return out
}

// Layers of the self-time breakdown of a query.
const (
	layerHTTP        = "http"
	layerServe       = "serve"
	layerPeernet     = "peernet"
	layerSlice       = "slice"
	layerCoreRepair  = "core/repair"
	layerProgram     = "program"
	layerLP          = "lp"
	layerIncremental = "incremental"
)

var layerOrder = []string{layerHTTP, layerServe, layerPeernet, layerSlice, layerCoreRepair, layerProgram, layerLP, layerIncremental}

// phaseMeans is the mean replayed duration of each phase of the node's
// full query path (replayQuery).
type phaseMeans struct {
	snapLocal, forquery, fingerprint time.Duration
	corePCA                          time.Duration // direct engine
	programPCA, ground, solve        time.Duration // transitive engine
}

// layerSelf splits the mean query time into per-layer self time. The
// round trip, handler, peernet and answer times are measured per
// request; the node's local time (answer minus remote wait) is
// attributed by the request's route:
//
//   - patched by the incremental series: all of it to the incremental
//     path, which bypasses snapshot, slice and engine;
//   - otherwise it is split over the phases the route runs (snapshot
//     assembly, slice and fingerprint, plus the engine when the request
//     ran the solver) in proportion to their replayed durations.
func layerSelf(qs []queryTrace, pm phaseMeans, transitive bool) map[string]time.Duration {
	out := make(map[string]time.Duration, len(layerOrder))
	if len(qs) == 0 {
		return out
	}
	sums := make(map[string]float64, len(layerOrder))
	for _, q := range qs {
		sums[layerHTTP] += float64(q.roundtrip - q.handler)
		sums[layerServe] += float64(max(q.handler-q.answer, 0))
		sums[layerPeernet] += float64(q.remote)
		local := float64(max(q.answer-q.remote, 0))
		if q.delta[cPatched] > 0 && q.delta[cSolverRuns] == 0 {
			sums[layerIncremental] += local
			continue
		}
		parts := map[string]float64{
			layerPeernet: float64(pm.snapLocal),
			layerSlice:   float64(pm.forquery + pm.fingerprint),
		}
		if q.delta[cSolverRuns] > 0 {
			if transitive {
				parts[layerLP] = float64(pm.ground + pm.solve)
				parts[layerProgram] = float64(max(pm.programPCA-pm.ground-pm.solve, 0))
			} else {
				parts[layerCoreRepair] = float64(pm.corePCA)
			}
		}
		var total float64
		for _, v := range parts {
			total += v
		}
		for l, v := range parts {
			sums[l] += local * ratio(v, total)
		}
	}
	for _, l := range layerOrder {
		out[l] = time.Duration(sums[l] / float64(len(qs)))
	}
	return out
}

// topLayer returns the layer with the largest self time.
func topLayer(self map[string]time.Duration) string {
	best := ""
	for _, l := range layerOrder {
		if best == "" || self[l] > self[best] {
			best = l
		}
	}
	return best
}
