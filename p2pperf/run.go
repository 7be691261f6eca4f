package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Load shape shared by every workload.
const (
	// conns is the number of HTTP keep-alive connections and of sender
	// goroutines: nproc of the 2-CPU reference box, fixed so a workload
	// means the same load everywhere.
	conns = 2
	// setups is how many times a run sets the deployment up; setup_s is
	// their median.
	setups = 7
	// rounds is the number of open-loop + closed-loop rounds of an
	// end-to-end run.
	rounds = 3
	// Shares of --seconds: the open-loop and closed-loop phases of an
	// end-to-end run (split over its rounds), each of the untraced and
	// traced phases of a traced run, and the warm-up before either.
	openShare, closedShare = 0.7, 0.3
	traceShare             = 0.3
	warmShare              = 0.05
	// replays is the number of traced queries whose phases are replayed.
	replays = 8
	// lateBound is the generator lateness (p95) above which a run is
	// invalid: its schedule, not the system, would set the latencies.
	// The senders share the process and the CPUs with the deployment, so
	// host CPU steal alone reaches a few milliseconds.
	lateBound = 10 * time.Millisecond
)

// endToEndMetrics are the metrics of a --trace 0 run, perLayerMetrics
// those of a --trace 1 run; BENCHMARK.json lists the same names.
var (
	endToEndMetrics = []string{"setup_s", "query_p50_ms", "capacity_ops", "allocs_per_op", "rss_p90_mb"}
	perLayerMetrics = []string{
		"loadgen.late_p95_ms",
		"http.roundtrip_ms", "http.handler_ms", "http.self_ms",
		"serve.answer_ms", "serve.overhead_ms", "serve.shed_ratio",
		"peernet.calls_per_query", "peernet.call_ms", "peernet.remote_ms_per_query",
		"peernet.recv_bytes_per_query", "peernet.sent_bytes_per_query",
		"peernet.relation_cache_hit_ratio", "peernet.incr_patched_ratio", "peernet.incr_fallbacks_per_kq",
		"peernet.solver_runs_per_query", "peernet.coalesced_ratio",
		"slice.answer_cache_hit_ratio",
		"repair.searches_per_query", "repair.localized_ratio", "repair.components_per_search",
		"peernet.snapshot_ms", "slice.forquery_ms", "slice.fingerprint_ms",
		"core.pca_ms", "core.solutions_ms", "core.solutions_per_query",
		"repair.intersect_ms", "foquery.answers_ms",
		"program.build_ms", "lp.ground_ms", "lp.solve_ms", "lp.ground_rules", "lp.models_per_query",
		"runtime.gc_cycles_per_kop", "runtime.alloc_bytes_per_op", "host.steal_ratio",
		"layer.http_self_ms", "layer.serve_self_ms", "layer.peernet_self_ms", "layer.slice_self_ms",
		"layer.core_repair_self_ms", "layer.program_self_ms", "layer.lp_self_ms", "layer.incremental_self_ms",
		"layer.top_share", "trace.overhead_p50_ms",
	}
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is printed in the table, not in the JSON result.
	Samples int `json:"-"`
}

// outcome is a finished run: its metrics and what went wrong.
type outcome struct {
	metrics   map[string]metric
	order     []string
	attempted int64
	failed    int64
	problems  []string // correctness and route self-check failures
	invalid   string   // non-empty: the run is not a data point
	notes     []string // diagnostics printed with the table
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string, samples int) {
	if _, ok := o.metrics[name]; !ok {
		o.order = append(o.order, name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// phase sums up the operations of one load phase.
type phase struct {
	queries, writes []time.Duration
	late            []time.Duration
	backlog         int
	attempted       int
	failed          int
	firstErr        error
}

// add pools q into p.
func (p *phase) add(q phase) {
	p.queries = append(p.queries, q.queries...)
	p.writes = append(p.writes, q.writes...)
	p.late = append(p.late, q.late...)
	p.backlog += q.backlog
	p.attempted += q.attempted
	p.failed += q.failed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

func summarize(ops []op, ts []opTiming) phase {
	var p phase
	for i, t := range ts {
		p.attempted++
		if t.Err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = t.Err
			}
			continue
		}
		if ops[i].write {
			p.writes = append(p.writes, t.Latency())
		} else {
			p.queries = append(p.queries, t.Latency())
		}
		if t.Backlog {
			p.backlog++
		} else {
			p.late = append(p.late, t.Late)
		}
	}
	return p
}

func countQueries(ops []op) (queries, writes int) {
	for _, o := range ops {
		if o.write {
			writes++
		} else {
			queries++
		}
	}
	return
}

// opCount is round(rate * seconds), at least 1.
func opCount(rate, seconds float64) int { return max(1, int(math.Round(rate*seconds))) }

// setUp generates the workload's system, starts the deployment and
// sends the first query until its answer is correct; it returns the
// deployment and the time all that took.
func setUp(w *workload, seed int64, first *op, want []byte) (*deployment, time.Duration, error) {
	start := time.Now()
	d, err := deploy(w, seed, conns)
	if err != nil {
		return nil, 0, err
	}
	deadline := start.Add(60 * time.Second)
	for {
		body, err := d.do(first, nil, 0)
		if err == nil && bytes.Equal(body, want) {
			return d, time.Since(start), nil
		}
		if time.Now().After(deadline) {
			d.close()
			return nil, 0, fmt.Errorf("no correct answer to %s within 60s: err=%v body=%q want=%q", first.query, err, body, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// expected computes the oracle answer for the first shape straight from
// a second copy of the generated system.
func expected(w *workload, seed int64, first *op) ([]byte, error) {
	ans, err := oracleAnswers(w.build(seed), w.root, first)
	if err != nil {
		return nil, fmt.Errorf("oracle for %s: %w", first.query, err)
	}
	return encodeAnswers(ans), nil
}

// runner executes ops of a stream over a deployment.
func runner(d *deployment, ops []op) func(i int) error {
	return func(i int) error {
		_, err := d.do(&ops[i], nil, 0)
		return err
	}
}

// runEndToEnd is a --trace 0 run: set-up (several times), warm-up, then
// `rounds` rounds of an open-loop phase at the workload's fixed rate
// followed by a closed-loop phase with two clients, then the route
// self-check and the correctness check on the quiesced deployment.
// Rounds spread both phases over the whole run; latency percentiles
// pool the open-loop queries of every round, capacity is the median of
// the rounds.
func runEndToEnd(w *workload, seed int64, seconds float64) (*outcome, error) {
	out := newOutcome()
	nWarm := opCount(w.closedRate, warmShare*seconds)
	nOpen := opCount(w.rate, openShare*seconds/rounds)
	nClosed := opCount(w.closedRate, closedShare*seconds/rounds)
	stream := w.stream(seed+1, nWarm+rounds*(nOpen+nClosed))
	shapes := w.shapes(stream)
	want, err := expected(w, seed, &shapes[0])
	if err != nil {
		return nil, err
	}
	stealStart := readSteal()

	var setupTimes []float64
	var d *deployment
	for k := 0; k < setups; k++ {
		dk, took, err := setUp(w, seed, &shapes[0], want)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, took.Seconds())
		if k < setups-1 {
			dk.close()
		} else {
			d = dk
		}
	}
	defer d.close()

	warm, _ := closedLoop(nWarm, conns, runner(d, stream[:nWarm]))
	if p := summarize(stream[:nWarm], warm); p.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d operations failed, first: %v", p.failed, p.attempted, p.firstErr)
	}

	debug.FreeOSMemory() // drop the earlier set-ups' memory from the RSS
	rss := startRSSSampler()
	before := d.counters()
	var open, closed phase
	var caps []float64
	var mallocs uint64
	var closedTime time.Duration
	next := nWarm
	for r := 0; r < rounds; r++ {
		runtime.GC()
		ops := stream[next : next+nOpen]
		next += nOpen
		open.add(summarize(ops, openLoop(nOpen, w.rate, conns, runner(d, ops))))

		runtime.GC()
		ops = stream[next : next+nClosed]
		next += nClosed
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ts, elapsed := closedLoop(nClosed, conns, runner(d, ops))
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		closedTime += elapsed
		caps = append(caps, float64(nClosed)/elapsed.Seconds())
		closed.add(summarize(ops, ts))
	}
	delta := d.counters().minus(before)
	rssMB := rss.stop()

	out.attempted = int64(open.attempted + closed.attempted)
	out.failed = int64(open.failed + closed.failed)
	for _, p := range []phase{open, closed} {
		if p.firstErr != nil {
			out.problem("%d of %d operations failed, first: %v", p.failed, p.attempted, p.firstErr)
		}
	}

	qms := millis(open.queries)
	if !supported(len(qms), 0.95) {
		return nil, fmt.Errorf("query p95 over %d samples leaves fewer than %d beyond it: the workload is sized too small", len(qms), minTail)
	}
	p50, _ := percentile(qms, 0.50)
	p95, p95beyond := percentile(qms, 0.95)
	closedOps := rounds * nClosed
	out.set("setup_s", median(setupTimes), "s", len(setupTimes))
	out.set("query_p50_ms", p50, "ms", len(qms))
	out.set("capacity_ops", median(caps), "1/s", closedOps)
	out.set("allocs_per_op", float64(mallocs)/float64(closedOps), "count", closedOps)
	rss90, _ := percentile(rssMB, 0.90)
	out.set("rss_p90_mb", rss90, "MB", len(rssMB))

	// Printed with the table only: the query p95 and the RSS peak, whose
	// run-to-run spreads on a shared 2-CPU host (interquartile ranges of
	// 0.3 to 0.7 of the median over seeds; the peak is a brief spike set
	// by GC timing) are wider than any bound a change could be held to;
	// write latencies (not every workload writes); the error ratio; and
	// run-validity diagnostics.
	out.notes = append(out.notes,
		fmt.Sprintf("query_p95_ms %.4f ms (%d samples, %d beyond it)", p95, len(qms), p95beyond),
		fmt.Sprintf("rss_peak_mb %.4f MB (largest of %d samples every %v)", rssMB[len(rssMB)-1], len(rssMB), rssEvery),
		fmt.Sprintf("closed-loop capacity per round (%d rounds): %s ops/s", rounds, fmtList(caps)))
	if len(open.writes) > 0 {
		wms := millis(open.writes)
		w50, _ := percentile(wms, 0.50)
		w95, _ := percentile(wms, 0.95)
		out.notes = append(out.notes,
			fmt.Sprintf("write_p50_ms %.4f ms (%d samples, all rounds)", w50, len(wms)),
			fmt.Sprintf("write_p95_ms %.4f ms (%d samples, all rounds%s)", w95, len(wms), unsupportedMark(len(wms))))
	}
	if q, ok := highestSupported(len(qms), []float64{0.95, 0.99, 0.999}); ok {
		v, _ := percentile(qms, q)
		out.notes = append(out.notes, fmt.Sprintf("query p%g = %.4f ms over all rounds is the highest percentile with >= %d samples beyond it", q*100, v, minTail))
	}
	latems := millis(open.late)
	late95, _ := percentile(latems, 0.95)
	out.notes = append(out.notes,
		fmt.Sprintf("error_ratio %.6f (%d failed of %d attempted)", ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted),
		fmt.Sprintf("loadgen.late_p95_ms %.4f ms over %d on-time sends; %d backlogged sends", late95, len(latems), open.backlog),
		fmt.Sprintf("host.steal_ratio %.5f", stealStart.ratioTo(readSteal())),
		fmt.Sprintf("per round: open loop %d ops at %g ops/s over %d senders; closed loop %d ops, %d clients (%.3fs in all)",
			nOpen, w.rate, conns, nClosed, conns, closedTime.Seconds()))
	if late95 > float64(lateBound)/float64(time.Millisecond) {
		out.invalid = fmt.Sprintf("generator lateness p95 %.3f ms exceeds %v", late95, lateBound)
	}

	queries, writes := countQueries(stream[nWarm:])
	if err := w.route(delta, queries, writes, len(d.nodes)); err != nil {
		out.problem("route self-check: %v", err)
	}
	checked, bad := checkAnswers(d, shapes)
	out.attempted += int64(checked)
	out.failed += int64(len(bad))
	for _, b := range bad {
		out.problem("correctness: %s", b)
	}
	return out, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

func unsupportedMark(n int) string {
	if supported(n, 0.95) {
		return ""
	}
	return ", fewer than 10 beyond p95"
}

// runTraced is a --trace 1 run: one set-up, warm-up, then two open-loop
// phases with one sender at half the workload's rate — untraced, then
// traced — and the replay of sampled traced queries. It reports the
// per-layer metrics and checks the layer map and the answers.
func runTraced(w *workload, seed int64, seconds float64, traceDir string) (*outcome, error) {
	out := newOutcome()
	rate := w.rate / 2
	nWarm := opCount(w.closedRate, warmShare*seconds)
	nPhase := opCount(rate, traceShare*seconds)
	stream := w.stream(seed+1, nWarm+2*nPhase)
	shapes := w.shapes(stream)
	want, err := expected(w, seed, &shapes[0])
	if err != nil {
		return nil, err
	}
	stealStart := readSteal()
	d, _, err := setUp(w, seed, &shapes[0], want)
	if err != nil {
		return nil, err
	}
	defer d.close()
	warm, _ := closedLoop(nWarm, conns, runner(d, stream[:nWarm]))
	if p := summarize(stream[:nWarm], warm); p.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d operations failed, first: %v", p.failed, p.attempted, p.firstErr)
	}

	runtime.GC()
	plainOps := stream[nWarm : nWarm+nPhase]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := summarize(plainOps, openLoop(nPhase, rate, 1, runner(d, plainOps)))
	runtime.ReadMemStats(&m1)

	runtime.GC()
	tr := newTracer()
	d.setTracer(tr)
	before := d.counters()
	tracedOps := stream[nWarm+nPhase:]
	traced := summarize(tracedOps, openLoop(nPhase, rate, 1, func(i int) error {
		_, err := d.do(&tracedOps[i], tr, int64(i+1))
		return err
	}))
	delta := d.counters().minus(before)
	d.hook.tr.Store(nil)
	routes := d.hook.takeRoutes()

	// Replays run with the transport still traced, so the snapshot's
	// peernet calls are spans of the replay.
	var reps []replayed
	for j, o := range sampleQueries(tracedOps, replays) {
		o := o
		r, err := replayQuery(d, tr, int64(nPhase+1+j), &o)
		if err != nil {
			d.setTracer(nil)
			return nil, err
		}
		reps = append(reps, r)
	}
	d.setTracer(nil)
	spans := tr.snapshot()
	if traceDir != "" {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := tr.writeJSON(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		out.notes = append(out.notes, fmt.Sprintf("trace: %d spans written to %s", len(spans), path))
	}

	out.attempted = int64(plain.attempted + traced.attempted)
	out.failed = int64(plain.failed + traced.failed)
	for _, p := range []phase{plain, traced} {
		if p.firstErr != nil {
			out.problem("%d of %d operations failed, first: %v", p.failed, p.attempted, p.firstErr)
		}
	}

	queryReqs := map[int64]bool{}
	for i, o := range tracedOps {
		if !o.write {
			queryReqs[int64(i+1)] = true
		}
	}
	qs := assemble(spans, routes, queryReqs)
	pm := meanPhases(reps)
	self := layerSelf(qs, pm, w.transitive)
	reportLayers(out, w, qs, reps, pm, self, delta, traced, plain, m1, m0, stealStart)

	queries, writes := countQueries(tracedOps)
	if err := w.route(delta, queries, writes, len(d.nodes)); err != nil {
		out.problem("route self-check: %v", err)
	}
	if top := topLayer(self); top != w.top {
		out.problem("layer map: largest self time per query is %s (%v), want %s (%v)", top, self[top], w.top, self[w.top])
	}
	checked, bad := checkAnswers(d, shapes)
	out.attempted += int64(checked)
	out.failed += int64(len(bad))
	for _, b := range bad {
		out.problem("correctness: %s", b)
	}
	return out, nil
}

// meanPhases averages the replayed phase durations.
func meanPhases(reps []replayed) phaseMeans {
	var pm phaseMeans
	if len(reps) == 0 {
		return pm
	}
	n := time.Duration(len(reps))
	for _, r := range reps {
		pm.snapLocal += r.snapLocal
		pm.forquery += r.phase["slice.forquery"]
		pm.fingerprint += r.phase["slice.fingerprint"]
		pm.corePCA += r.phase["core.pca"]
		pm.programPCA += r.phase["program.pca"]
		pm.ground += r.phase["lp.ground"]
		pm.solve += r.phase["lp.solve"]
	}
	pm.snapLocal /= n
	pm.forquery /= n
	pm.fingerprint /= n
	pm.corePCA /= n
	pm.programPCA /= n
	pm.ground /= n
	pm.solve /= n
	return pm
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reportLayers sets every per-layer metric of a traced run.
func reportLayers(out *outcome, w *workload, qs []queryTrace, reps []replayed, pm phaseMeans,
	self map[string]time.Duration, delta counters, traced, plain phase, m1, m0 runtime.MemStats, steal stealReading) {
	nq := len(qs)
	var rt, h, remote, ans, callTime []float64
	calls := 0
	for _, q := range qs {
		rt = append(rt, ms(q.roundtrip))
		h = append(h, ms(q.handler))
		remote = append(remote, ms(q.remote))
		ans = append(ans, ms(q.answer))
		callTime = append(callTime, ms(q.callTime))
		calls += q.calls
	}
	var sumCall float64
	for _, c := range callTime {
		sumCall += c
	}
	fq := float64(nq)
	late := millis(append(append([]time.Duration(nil), plain.late...), traced.late...))
	late95, _ := percentile(late, 0.95)
	out.set("loadgen.late_p95_ms", late95, "ms", len(late))

	out.set("http.roundtrip_ms", mean(rt), "ms", nq)
	out.set("http.handler_ms", mean(h), "ms", nq)
	out.set("http.self_ms", mean(rt)-mean(h), "ms", nq)
	out.set("serve.answer_ms", mean(ans), "ms", nq)
	out.set("serve.overhead_ms", mean(h)-mean(ans), "ms", nq)
	out.set("serve.shed_ratio", ratio(float64(delta[cShed]), float64(traced.attempted)), "ratio", traced.attempted)

	out.set("peernet.calls_per_query", ratio(float64(calls), fq), "count", nq)
	out.set("peernet.call_ms", ratio(sumCall, float64(calls)), "ms", calls)
	out.set("peernet.remote_ms_per_query", mean(remote), "ms", nq)
	out.set("peernet.recv_bytes_per_query", ratio(float64(delta[cRecvBytes]), fq), "B", nq)
	out.set("peernet.sent_bytes_per_query", ratio(float64(delta[cSentBytes]), fq), "B", nq)
	out.set("peernet.relation_cache_hit_ratio", ratio(float64(delta[cRelHits]), float64(delta[cRelHits]+delta[cRelMisses])), "ratio", int(delta[cRelHits]+delta[cRelMisses]))
	out.set("peernet.incr_patched_ratio", ratio(float64(delta[cPatched]), fq), "ratio", nq)
	out.set("peernet.incr_fallbacks_per_kq", 1000*ratio(float64(delta[cFallbacks]), fq), "count", nq)
	out.set("peernet.solver_runs_per_query", ratio(float64(delta[cSolverRuns]), fq), "count", nq)
	out.set("peernet.coalesced_ratio", ratio(float64(delta[cCoalesced]), fq), "ratio", nq)
	out.set("slice.answer_cache_hit_ratio", ratio(float64(delta[cAnsHits]), float64(delta[cAnsHits]+delta[cAnsMisses])), "ratio", int(delta[cAnsHits]+delta[cAnsMisses]))
	out.set("repair.searches_per_query", ratio(float64(delta[cSearches]), fq), "count", nq)
	out.set("repair.localized_ratio", ratio(float64(delta[cLocalized]), float64(delta[cSearches])), "ratio", int(delta[cSearches]))
	out.set("repair.components_per_search", ratio(float64(delta[cComponents]), float64(delta[cLocalized])), "count", int(delta[cLocalized]))

	phaseMean := func(name string) float64 {
		var t time.Duration
		for _, r := range reps {
			t += r.phase[name]
		}
		return ratio(ms(t), float64(len(reps)))
	}
	nr := len(reps)
	var sols, models, rules float64
	for _, r := range reps {
		sols += float64(r.solutions)
		models += float64(r.models)
		rules += float64(r.groundRules)
	}
	out.set("peernet.snapshot_ms", phaseMean("peernet.snapshot"), "ms", nr)
	out.set("slice.forquery_ms", ms(pm.forquery), "ms", nr)
	out.set("slice.fingerprint_ms", ms(pm.fingerprint), "ms", nr)
	out.set("core.pca_ms", phaseMean("core.pca"), "ms", nr)
	out.set("core.solutions_ms", phaseMean("core.solutions"), "ms", nr)
	out.set("core.solutions_per_query", ratio(sols, float64(nr)), "count", nr)
	out.set("repair.intersect_ms", phaseMean("repair.intersect"), "ms", nr)
	out.set("foquery.answers_ms", phaseMean("foquery.answers"), "ms", nr)
	out.set("program.build_ms", phaseMean("program.build"), "ms", nr)
	out.set("lp.ground_ms", phaseMean("lp.ground"), "ms", nr)
	out.set("lp.solve_ms", phaseMean("lp.solve"), "ms", nr)
	out.set("lp.ground_rules", ratio(rules, float64(nr)), "count", nr)
	out.set("lp.models_per_query", ratio(models, float64(nr)), "count", nr)

	ops := float64(plain.attempted)
	out.set("runtime.gc_cycles_per_kop", 1000*ratio(float64(m1.NumGC-m0.NumGC), ops), "count", plain.attempted)
	out.set("runtime.alloc_bytes_per_op", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), ops), "B", plain.attempted)
	out.set("host.steal_ratio", steal.ratioTo(readSteal()), "ratio", 1)

	var rtSum time.Duration
	for _, q := range qs {
		rtSum += q.roundtrip
	}
	for _, l := range layerOrder {
		out.set("layer."+strings.ReplaceAll(l, "/", "_")+"_self_ms", ms(self[l]), "ms", nq)
	}
	top := topLayer(self)
	out.set("layer.top_share", ratio(float64(self[top]), ratio(float64(rtSum), fq)), "ratio", nq)

	tracedQ, plainQ := millis(traced.queries), millis(plain.queries)
	t50, _ := percentile(tracedQ, 0.5)
	u50, _ := percentile(plainQ, 0.5)
	out.set("trace.overhead_p50_ms", t50-u50, "ms", len(tracedQ))
	out.notes = append(out.notes,
		fmt.Sprintf("layer map: largest self time per query is %s (%.1f%% of %.4f ms); expected %s", top,
			100*ratio(float64(self[top]), ratio(float64(rtSum), fq)), ratio(ms(rtSum), fq), w.top),
		fmt.Sprintf("tracing overhead: query p50 %.4f ms traced vs %.4f ms untraced (%d and %d samples)", t50, u50, len(tracedQ), len(plainQ)))
}

// rssSampler samples the resident set size (VmRSS of /proc/self/statm)
// every rssEvery until stopped.
type rssSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	mb   []float64
}

const rssEvery = 20 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{done: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	s.mb = append(s.mb, pages*float64(os.Getpagesize())/(1<<20))
}

// stop ends sampling and returns the samples in MiB, ascending.
func (s *rssSampler) stop() []float64 {
	close(s.done)
	s.wg.Wait()
	s.sample()
	sort.Float64s(s.mb)
	return s.mb
}

// stealReading is the aggregate CPU line of /proc/stat: steal ticks and
// all ticks.
type stealReading struct{ steal, total float64 }

func readSteal() stealReading {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealReading{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealReading{}
	}
	var r stealReading
	// user nice system idle iowait irq softirq steal; guest time is
	// already included in user.
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseFloat(fields[i], 64)
		r.total += v
		if i == 8 {
			r.steal = v
		}
	}
	return r
}

func (s stealReading) ratioTo(end stealReading) float64 {
	return ratio(end.steal-s.steal, end.total-s.total)
}
