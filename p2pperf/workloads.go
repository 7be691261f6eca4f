package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/slice"
	gen "repro/internal/workload"
)

// op is one HTTP operation against the root: a /query or a /write.
type op struct {
	write      bool
	query      string
	vars       []string
	transitive bool
	target     string // request path and query string
}

func queryOp(q string, vars []string, transitive bool) op {
	t := "/query?q=" + url.QueryEscape(q) + "&vars=" + url.QueryEscape(strings.Join(vars, ","))
	if transitive {
		t += "&transitive=true"
	}
	return op{query: q, vars: vars, transitive: transitive, target: t}
}

func writeOp(rel string, tuple ...string) op {
	return op{write: true, target: "/write?rel=" + url.QueryEscape(rel) + "&tuple=" + url.QueryEscape(strings.Join(tuple, ","))}
}

// lookupSpace is the key space of the point-lookup workloads: eight
// times the node's answer cache, so at most one lookup in eight can hit.
const lookupSpace = 8 * slice.DefaultAnswerCacheSize

// workload is one traffic mix against one generated deployment. Every
// input derives from the seed: the system from build(seed), the
// operation stream from stream(seed+1, n).
type workload struct {
	name string
	why  string
	// Provenance, also recorded in provenance.json.
	sizes    string
	stresses []string
	idle     []string
	heldOut  int64

	root       core.PeerID
	cacheTTL   time.Duration
	transitive bool
	build      func(seed int64) *core.System
	stream     func(seed int64, n int) []op
	// shapes are the queries compared byte for byte with the oracles
	// after the timed phases; stream is the run's operation stream.
	shapes func(stream []op) []op

	// rate is the open-loop rate (ops/s) over two senders, about 30% of
	// the closed-loop capacity; closedRate is that capacity on a
	// 2-CPU reference box, which sizes the closed phase's fixed
	// operation count.
	rate, closedRate float64

	// route checks, from the root's counters over the timed phases,
	// that the traffic took the path the workload is about.
	route    func(delta counters, queries, writes, peers int) error
	routeDoc string
	// top is the layer expected to have the largest self time per query.
	top string
}

// sampleQueries returns up to k query ops of stream, evenly spaced.
func sampleQueries(stream []op, k int) []op {
	var qs []op
	for _, o := range stream {
		if !o.write {
			qs = append(qs, o)
		}
	}
	if len(qs) <= k {
		return qs
	}
	out := make([]op, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, qs[i*len(qs)/k])
	}
	return out
}

func val(rng *rand.Rand) string { return fmt.Sprintf("v%d", rng.Intn(1000)) }

var workloads = []*workload{
	{
		name: "fresh-reads",
		why:  "uncached snapshots: each query re-reads specs and relevant data over TCP, then hits the answer cache; peernet transport, spec BFS, slice and answer cache do the work",
		sizes: "WideUniverse(width=8, relsPerPeer=2, factsPerRel=16, conflictPeers=1): 10 peers; CacheTTL=0; " +
			"MixedStream query shapes over q0, every 16th op a /write of a fresh q0 fact at the root " +
			"(a run at --seconds 25 writes about 340 facts; the count is set by --seconds, not by speed)",
		stresses: []string{"peernet (TCP dial per call, spec BFS, batched fetch)", "slice (ForQuery, DataFingerprint)", "answer cache"},
		idle:     []string{"core/repair (cache hits skip them)", "program/lp", "incremental path (needs CacheTTL > 0)"},
		heldOut:  9101,
		root:     "P0",
		build:    func(seed int64) *core.System { return gen.WideUniverse(8, 2, 16, 1, seed) },
		stream: func(seed int64, n int) []op {
			shapes := []op{
				queryOp("q0(X,Y)", []string{"X", "Y"}, false),
				queryOp("q0(k0,Y)", []string{"Y"}, false),
				queryOp("q0(X,Y)", []string{"X"}, false),
			}
			rng := rand.New(rand.NewSource(seed))
			out := make([]op, 0, n)
			for i := 0; i < n; i++ {
				if i%16 == 15 {
					out = append(out, writeOp("q0", fmt.Sprintf("w%d", i), val(rng)))
					continue
				}
				out = append(out, shapes[rng.Intn(len(shapes))])
			}
			return out
		},
		shapes: func(stream []op) []op {
			return []op{
				queryOp("q0(X,Y)", []string{"X", "Y"}, false),
				queryOp("q0(k0,Y)", []string{"Y"}, false),
				queryOp("q0(X,Y)", []string{"X"}, false),
			}
		},
		rate:       120,
		closedRate: 390,
		route: func(d counters, queries, _, peers int) error {
			hit := ratio(float64(d[cAnsHits]), float64(d[cAnsHits]+d[cAnsMisses]))
			if hit < 0.7 {
				return fmt.Errorf("answer-cache hit ratio %.3f, want >= 0.7", hit)
			}
			cpq := ratio(float64(d[cCalls]), float64(queries))
			if cpq < float64(peers-1) || cpq > float64(peers) {
				return fmt.Errorf("%.2f remote calls per query, want one spec call per other peer plus at most one fetch: [%d, %d]", cpq, peers-1, peers)
			}
			return nil
		},
		routeDoc: "answer-cache hit ratio >= 0.7; remote calls per query in [peers-1, peers] (a spec call per other peer plus one batched fetch)",
		top:      "peernet",
	},
	{
		name: "cold-lookups",
		why:  "point lookups over a key space 8x the answer cache with warm TTL caches: no remote calls, and repair search plus answer intersection in core/repair/foquery do the work",
		sizes: "LargeUniverse(coreFacts=1000, conflicts=3, bulkRels=2, bulkFactsPerRel=1000); CacheTTL=1h; " +
			"q0(k<i>,Y) with i uniform in [0, 8*DefaultAnswerCacheSize)",
		stresses: []string{"core (SolutionsFor)", "repair (wave search, localization, IntersectAnswersOpt)", "foquery (NewEnv, Answers)", "relation"},
		idle:     []string{"peernet transport (TTL caches: no remote calls after warm-up)", "program/lp", "answer cache (hit ratio <= 1/8)"},
		heldOut:  9102,
		root:     "P0",
		cacheTTL: time.Hour,
		build:    func(seed int64) *core.System { return gen.LargeUniverse(1000, 3, 2, 1000, seed) },
		stream: func(seed int64, n int) []op {
			rng := rand.New(rand.NewSource(seed))
			out := make([]op, n)
			for i := range out {
				out[i] = queryOp(fmt.Sprintf("q0(k%d,Y)", rng.Intn(lookupSpace)), []string{"Y"}, false)
			}
			return out
		},
		shapes: func(stream []op) []op {
			out := []op{
				queryOp("q0(k0,Y)", []string{"Y"}, false),
				queryOp("q0(k999,Y)", []string{"Y"}, false),
				queryOp("q0(c0,Y)", []string{"Y"}, false),
			}
			return append(out, sampleQueries(stream, 3)...)
		},
		rate:       32,
		closedRate: 107,
		route: func(d counters, queries, _, _ int) error {
			hit := ratio(float64(d[cAnsHits]), float64(d[cAnsHits]+d[cAnsMisses]))
			if hit > 1.0/8 {
				return fmt.Errorf("answer-cache hit ratio %.3f, want <= 1/8", hit)
			}
			if d[cCalls] != 0 {
				return fmt.Errorf("%d remote calls after warm-up, want 0", d[cCalls])
			}
			return nil
		},
		routeDoc: "answer-cache hit ratio <= 1/8; no remote calls after warm-up",
		top:      "core/repair",
	},
	{
		name: "write-churn",
		why:  "HTTP writes of fresh facts interleaved 1:1 with the hot query ra0(X,Y): the relation journal, incremental series, IncrState and cache Promote path",
		sizes: "ChurnUniverse(k=6, cleanPerRel=200); CacheTTL=1h; " +
			"op 2j writes (w<j>, v) into ra<1 + j mod 5>, op 2j+1 queries ra0(X,Y) " +
			"(a run at --seconds 25 writes about 1640 facts, so ra1..ra5 grow from 200 to about 530 each; the count is set by --seconds, not by speed)",
		stresses: []string{"relation journal", "peernet incremental series", "repair IncrState", "answer cache Promote"},
		idle:     []string{"peernet transport (TTL caches)", "program/lp", "full repair search (queries are patched)"},
		heldOut:  9103,
		root:     "A",
		cacheTTL: time.Hour,
		build:    func(seed int64) *core.System { return gen.ChurnUniverse(6, 200, seed) },
		stream: func(seed int64, n int) []op {
			rng := rand.New(rand.NewSource(seed))
			hot := queryOp("ra0(X,Y)", []string{"X", "Y"}, false)
			out := make([]op, 0, n)
			for i := 0; i < n; i++ {
				if i%2 == 1 {
					out = append(out, hot)
					continue
				}
				j := i / 2
				out = append(out, writeOp(fmt.Sprintf("ra%d", 1+j%5), fmt.Sprintf("w%d", j), val(rng)))
			}
			return out
		},
		shapes: func(stream []op) []op {
			return []op{
				queryOp("ra0(X,Y)", []string{"X", "Y"}, false),
				queryOp("ra1(X,Y)", []string{"X", "Y"}, false),
			}
		},
		rate:       70,
		closedRate: 235,
		route: func(d counters, queries, _, _ int) error {
			patched := ratio(float64(d[cPatched]), float64(queries))
			if patched < 0.9 {
				return fmt.Errorf("%.3f of post-write queries patched, want >= 0.9", patched)
			}
			if d[cFallbacks] != 0 {
				return fmt.Errorf("%d incremental fallbacks, want 0", d[cFallbacks])
			}
			return nil
		},
		routeDoc: ">= 90% of post-write queries patched by the incremental series; 0 fallbacks",
		top:      "incremental",
	},
	{
		name: "transitive-lookups",
		why:  "transitive-semantics lookups over a key space 8x the answer cache: the only workload where program, lp/ground and lp/solve run",
		sizes: "Chain(depth=4, factsPerPeer=150); CacheTTL=1h; transitive=true; " +
			"t0(p<u mod 4>_k<u/4>,Y) with u uniform in [0, 8*DefaultAnswerCacheSize)",
		stresses:   []string{"program (BuildTransitiveOpt)", "lp (UnfoldChoice, ground.GroundOpt)", "lp/solve (StableModels)"},
		idle:       []string{"peernet transport (TTL caches)", "core/repair search", "incremental path (direct semantics only)"},
		heldOut:    9104,
		root:       "P0",
		cacheTTL:   time.Hour,
		transitive: true,
		build:      func(seed int64) *core.System { return gen.Chain(4, 150, seed) },
		stream: func(seed int64, n int) []op {
			rng := rand.New(rand.NewSource(seed))
			out := make([]op, n)
			for i := range out {
				u := rng.Intn(lookupSpace)
				out[i] = queryOp(fmt.Sprintf("t0(p%d_k%d,Y)", u%4, u/4), []string{"Y"}, true)
			}
			return out
		},
		shapes: func(stream []op) []op {
			out := []op{
				queryOp("t0(X,Y)", []string{"X", "Y"}, true),
				queryOp("t0(p0_k0,Y)", []string{"Y"}, true),
				queryOp("t0(p3_k5,Y)", []string{"Y"}, true),
			}
			return append(out, sampleQueries(stream, 3)...)
		},
		rate:       32,
		closedRate: 105,
		route: func(d counters, queries, _, _ int) error {
			runs := ratio(float64(d[cSolverRuns]), float64(queries))
			if runs < 0.85 || runs > 1 {
				return fmt.Errorf("%.3f solver runs per query, want about 1 (0.85..1)", runs)
			}
			if d[cCalls] != 0 {
				return fmt.Errorf("%d remote calls after warm-up, want 0", d[cCalls])
			}
			return nil
		},
		routeDoc: "0.85..1 solver runs per query; no remote calls after warm-up",
		top:      "lp",
	},
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}
