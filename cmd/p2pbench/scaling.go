package main

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/benchcase"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/lp/ground"
	"repro/internal/parallel"
	"repro/internal/peernet"
	"repro/internal/program"
	"repro/internal/relation"
	"repro/internal/workload"
)

// timedAnswers times one answering call.
func timedAnswers(f func() ([]relation.Tuple, error)) ([]relation.Tuple, time.Duration, error) {
	start := time.Now()
	ans, err := f()
	return ans, time.Since(start), err
}

// caseAt names a benchcase case and the parallelism to set it up at.
type caseAt struct {
	name string
	par  int
}

// caseRun is one timed run of a case's op: its result, duration and
// heap allocation count.
type caseRun struct {
	res    any
	d      time.Duration
	allocs int64
}

// runCases sets up each case in turn, times one run of its op (a GC
// runs first, see minOver) and tears the fixture down before the next.
func runCases(cases ...caseAt) ([]caseRun, error) {
	runs := make([]caseRun, 0, len(cases))
	for _, at := range cases {
		r, err := runCase(at)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func runCase(at caseAt) (caseRun, error) {
	for _, c := range benchcase.Cases {
		if c.Name != at.name {
			continue
		}
		op, done, err := c.Setup(at.par)
		if err != nil {
			return caseRun{}, fmt.Errorf("%s: %w", at.name, err)
		}
		defer done()
		var r caseRun
		r.d, r.allocs, err = minOver(1, 1, func() error {
			var e error
			r.res, e = op()
			return e
		})
		if err != nil {
			return caseRun{}, fmt.Errorf("%s: %w", at.name, err)
		}
		return r, nil
	}
	return caseRun{}, fmt.Errorf("p2pbench: no benchmark case %s", at.name)
}

// runB1 measures PCA latency vs instance size for the three engines on
// Example-1-shaped systems with a fixed number of conflicts. The
// repair-par column runs the repair engine with the -parallelism
// worker pool (results are checked identical to the sequential run).
func runB1(w io.Writer) error {
	fmt.Fprintf(w, "%-8s %-12s %-12s %-12s %-12s\n", "facts", "rewrite", "lp", "repair", "repair-par")
	for _, n := range []int{5, 10, 20, 40} {
		r, err := runCases(
			caseAt{fmt.Sprintf("B1/rewrite/n=%d", n), 0},
			caseAt{fmt.Sprintf("B1/lp/n=%d", n), 0},
			caseAt{fmt.Sprintf("B1/repair/n=%d", n), 1},
			caseAt{fmt.Sprintf("B1/repair/n=%d", n), benchParallelism})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(r[3].res, r[2].res) {
			return fmt.Errorf("parallel repair disagrees at n=%d: %v vs %v", n, r[3].res, r[2].res)
		}
		fmt.Fprintf(w, "%-8d %-12v %-12v %-12v %-12v\n", n, r[0].d, r[1].d, r[2].d, r[3].d)
	}
	fmt.Fprintf(w, "expected shape: rewriting polynomial and fastest as n grows;\n")
	fmt.Fprintf(w, "repair enumeration dominated by the number of solutions, not n;\n")
	fmt.Fprintf(w, "repair-par tracks repair/min(cores, solutions) on multi-core.\n")
	return nil
}

// runB2 shows the 2^k growth of solutions with independent conflicts.
func runB2(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %-10s %-10s %-12s %-12s\n", "conflicts", "expected", "solutions", "lp-time", "repair-time")
	for _, k := range []int{1, 2, 3, 4, 5} {
		r, err := runCases(caseAt{fmt.Sprintf("B2/lp/k=%d", k), 0}, caseAt{fmt.Sprintf("B2/repair/k=%d", k), 0})
		if err != nil {
			return err
		}
		if r[0].res != r[1].res {
			return fmt.Errorf("engines disagree at k=%d: %v vs %v", k, r[0].res, r[1].res)
		}
		fmt.Fprintf(w, "%-10d %-10d %-10v %-12v %-12v\n", k, 1<<k, r[0].res, r[0].d, r[1].d)
	}
	fmt.Fprintf(w, "expected shape: solutions double per conflict (Pi^p_2 blow-up).\n")
	return nil
}

// runB3 finds the crossover between the engines as conflicts grow with
// fixed clean data.
func runB3(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %-12s %-12s %-12s\n", "conflicts", "rewrite", "lp", "repair")
	for _, k := range []int{1, 2, 3, 4} {
		r, err := runCases(
			caseAt{fmt.Sprintf("B3/rewrite/k=%d", k), 0},
			caseAt{fmt.Sprintf("B3/lp/k=%d", k), 0},
			caseAt{fmt.Sprintf("B3/repair/k=%d", k), 0})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10d %-12v %-12v %-12v\n", k, r[0].d, r[1].d, r[2].d)
	}
	fmt.Fprintf(w, "expected shape: rewrite flat in k; lp and repair grow with 2^k.\n")
	return nil
}

// runB4 compares disjunctive solving against HCF-shifted solving
// (Section 4.1's optimization).
func runB4(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %-14s %-14s %-8s\n", "conflicts", "disjunctive", "shifted", "models")
	for _, k := range []int{2, 4, 6} {
		r, err := runCases(caseAt{fmt.Sprintf("B4/disjunctive/k=%d", k), 0}, caseAt{fmt.Sprintf("B4/shifted/k=%d", k), 0})
		if err != nil {
			return err
		}
		if r[0].res != r[1].res {
			return fmt.Errorf("shift changed model count at k=%d: %v vs %v", k, r[0].res, r[1].res)
		}
		fmt.Fprintf(w, "%-10d %-14v %-14v %-8v\n", k, r[0].d, r[1].d, r[0].res)
	}
	fmt.Fprintf(w, "expected shape: shifted never slower (avoids minimality search).\n")
	return nil
}

// runB5 measures grounding cost vs facts on referential programs, for
// the sequential grounder and the parallel one at -parallelism
// workers. The parallel ground program is checked byte-identical to
// the sequential one.
func runB5(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %-12s %-12s %-10s %-10s\n", "satisfied", "ground-seq", "ground-par", "atoms", "rules")
	for _, n := range []int{10, 25, 50, 100} {
		// parallel.Workers resolves 0 to GOMAXPROCS, keeping the flag's
		// "0 = GOMAXPROCS" meaning for this column too (ground.Options
		// itself treats <=1 as sequential).
		name := fmt.Sprintf("B5/facts=%d", n)
		r, err := runCases(caseAt{name, 1}, caseAt{name, parallel.Workers(benchParallelism)})
		if err != nil {
			return err
		}
		g, gp := r[0].res.(*ground.Program), r[1].res.(*ground.Program)
		if gp.String() != g.String() || !reflect.DeepEqual(gp.Atoms, g.Atoms) {
			return fmt.Errorf("parallel grounding diverged at n=%d", n)
		}
		fmt.Fprintf(w, "%-10d %-12v %-12v %-10d %-10d\n", n, r[0].d, r[1].d, len(g.Atoms), len(g.Rules))
	}
	fmt.Fprintf(w, "expected shape: near-linear in the relevant instantiations;\n")
	fmt.Fprintf(w, "ground-par tracks ground-seq/min(cores, rules) on multi-core.\n")
	return nil
}

// runB6 measures networked PCA over transports and latencies, plus the
// concurrent neighbour fan-out (par) and the TTL spec and relation
// caches (cached).
func runB6(w io.Writer) error {
	fmt.Fprintf(w, "%-20s %-14s\n", "transport", "pca-time")
	for _, row := range []struct {
		label string
		caseAt
	}{
		{"inproc(0ms)", caseAt{"B6/latency=0", 1}},
		{"inproc(1ms)", caseAt{"B6/latency=1ms", 1}},
		{"inproc(1ms,par)", caseAt{"B6/latency=1ms", benchParallelism}},
		{"inproc(1ms,cached)", caseAt{"B6/latency=1ms/cached", 1}},
		{"inproc(5ms)", caseAt{"B6/latency=5ms", 1}},
		{"inproc(5ms,par)", caseAt{"B6/latency=5ms", benchParallelism}},
		{"tcp(loopback)", caseAt{"B6/tcp", 1}},
	} {
		r, err := runCases(row.caseAt)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-20s %-14v\n", row.label, r[0].d)
	}
	fmt.Fprintf(w, "expected shape: per-neighbour fetch cost = 2 round trips (spec, then batch),\n")
	fmt.Fprintf(w, "overlapped across neighbours by par and amortized to ~0 by cached.\n")
	return nil
}

// runB7 contrasts violations sharing a choice key (one shared witness)
// with independent keys (independent witness choices).
func runB7(w io.Writer) error {
	// Shared key: v r1-tuples joined to the same s1 key; the paper's
	// choice((x,z),w) then picks one witness for all of them.
	shared := core.NewPeer("P").Declare("r1", 2).Declare("r2", 2).
		SetTrust("Q", core.TrustLess).
		AddDEC("Q", constraint.Referential("dec3", "r1", "s1", "r2", "s2"))
	q1 := core.NewPeer("Q").Declare("s1", 2).Declare("s2", 2)
	for i := 0; i < 3; i++ {
		shared.Fact("r1", "x", fmt.Sprintf("y%d", i))
		q1.Fact("s1", "z", fmt.Sprintf("y%d", i))
	}
	q1.Fact("s2", "z", "w0")
	q1.Fact("s2", "z", "w1")
	sysShared := core.NewSystem().MustAddPeer(shared).MustAddPeer(q1)

	sols, err := program.SolutionsViaLP(sysShared, "P", program.RunOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "3 violations, shared key (x,z), 2 witnesses: %d answer-set solutions\n", len(sols))

	indep := workload.ReferentialShaped(3, 2, 0, 1)
	sols2, err := program.SolutionsViaLP(indep, "P", program.RunOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "3 violations, independent keys, 2 witnesses: %d answer-set solutions\n", len(sols2))
	fmt.Fprintf(w, "expected shape: shared keys collapse the witness choices (one choice\n")
	fmt.Fprintf(w, "per key), independent keys multiply them ((1+2)^3 = 27).\n")
	return nil
}

// runB8 ablates support propagation in the solver.
func runB8(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %-14s %-14s\n", "conflicts", "with-support", "without")
	for _, k := range []int{2, 4, 6} {
		r, err := runCases(caseAt{fmt.Sprintf("B8/with/k=%d", k), 0}, caseAt{fmt.Sprintf("B8/without/k=%d", k), 0})
		if err != nil {
			return err
		}
		if r[0].res != r[1].res {
			return fmt.Errorf("ablation changed models at k=%d", k)
		}
		fmt.Fprintf(w, "%-10d %-14v %-14v\n", k, r[0].d, r[1].d)
	}
	fmt.Fprintf(w, "expected shape: identical models; support propagation prunes search.\n")
	return nil
}

// runB9 measures the wide-universe workload (ISSUE 4): a tiny
// query-relevant core inside a wide overlay of bystander peers. The
// full pipeline snapshots every peer's every relation; the sliced
// pipeline (Node.SnapshotFor / PeerConsistentAnswersFor) plans a
// relevance slice over cheap spec exports, moves only the relations in
// the slice, and serves repeat queries from the slice-keyed answer
// cache — which survives updates to irrelevant relations.
func runB9(w io.Writer) error {
	const width, relsPer, facts, conflicts = 8, 3, 40, 2
	sys := workload.WideUniverse(width, relsPer, facts, conflicts, 1)
	ip := peernet.NewInProc()
	ip.Latency = 200 * time.Microsecond
	nodes, stop, err := peernet.StartMesh(sys, ip, benchParallelism)
	if err != nil {
		return err
	}
	defer stop()
	root := nodes["P0"]
	root.CacheTTL = time.Minute
	q := foquery.MustParse("q0(X,Y)")
	vars := []string{"X", "Y"}

	totalRemote := 0
	for _, id := range sys.Peers() {
		if id == "P0" {
			continue
		}
		p, _ := sys.Peer(id)
		totalRemote += len(p.Schema.Relations())
	}
	_, sl, err := root.SnapshotFor(q, false)
	if err != nil {
		return err
	}
	if sl.RemoteRelCount() >= totalRemote {
		return fmt.Errorf("slice fetches %d of %d remote relations; expected strictly fewer", sl.RemoteRelCount(), totalRemote)
	}

	// Sliced first: the full snapshot fills the same spec and relation
	// caches, so timing it first would make the "cold" row warm.
	sliced := func() ([]relation.Tuple, error) { return root.PeerConsistentAnswersFor(q, vars, false) }
	slicedAns, dSliced, err := timedAnswers(sliced)
	if err != nil {
		return err
	}
	full, dFull, err := timedAnswers(func() ([]relation.Tuple, error) {
		return root.PeerConsistentAnswers(q, vars, false)
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(slicedAns, full) {
		return fmt.Errorf("sliced answers diverge: %v vs %v", slicedAns, full)
	}
	_, dRepeat, err := timedAnswers(sliced)
	if err != nil {
		return err
	}
	// Update an irrelevant (bystander) relation: the slice-keyed answer
	// cache must keep serving hits, since the fingerprint only covers
	// relevant relations.
	bp, _ := sys.Peer(core.PeerID(fmt.Sprintf("B%d", width-1)))
	bp.Fact(fmt.Sprintf("b%d_r%d", width-1, relsPer-1), "late_key", "late_val")
	slicedAns, dAfterUpd, err := timedAnswers(sliced)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(slicedAns, full) {
		return fmt.Errorf("sliced answers diverge after irrelevant update: %v vs %v", slicedAns, full)
	}
	hits, misses := root.AnswerCacheStats()
	if hits < 2 {
		return fmt.Errorf("answer cache hits=%d misses=%d; repeat and post-irrelevant-update queries should hit", hits, misses)
	}

	fmt.Fprintf(w, "%-22s %-14s %s\n", "mode", "pca-time", "remote relations moved")
	fmt.Fprintf(w, "%-22s %-14v %d\n", "full snapshot", dFull, totalRemote)
	fmt.Fprintf(w, "%-22s %-14v %d\n", "sliced (cold)", dSliced, sl.RemoteRelCount())
	fmt.Fprintf(w, "%-22s %-14v 0 (answer-cache hit)\n", "sliced (repeat)", dRepeat)
	fmt.Fprintf(w, "%-22s %-14v 0 (cache survives irrelevant update)\n", "sliced (after update)", dAfterUpd)
	fmt.Fprintf(w, "answer cache: hits=%d misses=%d; slice kept %d/%d constraints\n", hits, misses, sl.KeptDeps, sl.TotalDeps)
	fmt.Fprintf(w, "expected shape: sliced moves %d of %d remote relations and skips the\n", sl.RemoteRelCount(), totalRemote)
	fmt.Fprintf(w, "bystander repair search; repeats are cache hits with zero re-grounding.\n")
	return nil
}

// runB10 measures conflict-localized repair on the scattered-conflict
// workload: k independent EGD conflicts on k disjoint relation pairs.
// The global wave search re-checks the whole database at each of its
// ~2^k states and intersects answers over the materialized 2^k
// repairs; the localized engine decomposes the conflict graph into k
// trivial components, searches each with incremental violation
// checking, and answers the (single-relation) query from the one
// component it touches — never materializing the cross-product.
func runB10(w io.Writer) error {
	fmt.Fprintf(w, "%-6s %-14s %-14s %-10s %-14s %-14s\n",
		"k", "cqa-global", "cqa-localized", "speedup", "solve-global", "solve-localized")
	for _, k := range []int{4, 8, 10} {
		r, err := runCases(
			caseAt{fmt.Sprintf("B10/cqa-global/k=%d", k), 1},
			caseAt{fmt.Sprintf("B10/cqa-localized/k=%d", k), 1},
			caseAt{fmt.Sprintf("B10/solve-global/k=%d", k), 1},
			caseAt{fmt.Sprintf("B10/solve-localized/k=%d", k), 1})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(r[1].res, r[0].res) {
			return fmt.Errorf("localized CQA diverges at k=%d: %v vs %v", k, r[1].res, r[0].res)
		}
		if !sameKeys(r[3].res.([]*relation.Instance), r[2].res.([]*relation.Instance)) {
			return fmt.Errorf("localized solutions diverge at k=%d", k)
		}
		fmt.Fprintf(w, "%-6d %-14v %-14v %-10s %-14v %-14v\n",
			k, r[0].d, r[1].d, fmt.Sprintf("%.1fx", float64(r[0].d)/float64(r[1].d)), r[2].d, r[3].d)
	}
	fmt.Fprintf(w, "expected shape: global CQA grows with 2^k (repair enumeration +\n")
	fmt.Fprintf(w, "per-repair query evaluation); localized CQA grows with k (component\n")
	fmt.Fprintf(w, "searches + one 2-repair intersection); solve still materializes the\n")
	fmt.Fprintf(w, "2^k solution set, so its win is the search and minimality filter only.\n")
	return nil
}

func sameKeys(a, b []*relation.Instance) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// section31WithFD mirrors the E7 fixture from the program tests.
func section31WithFD() *core.System {
	p := core.NewPeer("P").Declare("r1", 2).Declare("r2", 2).
		Fact("r1", "a", "b").Fact("r2", "a", "g").
		SetTrust("Q", core.TrustLess).
		AddDEC("Q", constraint.Referential("dec3", "r1", "s1", "r2", "s2")).
		AddIC(constraint.FD("fd_r2", "r2"))
	q := core.NewPeer("Q").Declare("s1", 2).Declare("s2", 2).
		Fact("s1", "c", "b").
		Fact("s2", "c", "e").Fact("s2", "c", "f")
	return core.NewSystem().MustAddPeer(p).MustAddPeer(q)
}

// runB11 measures delegated peer answering (ISSUE 6) on the delegation
// fanout workload: a root importing filtered rows from several hubs,
// each hub cross-checking its rows against a large leaf relation. The
// centralized sliced path must pull every hub AND leaf relation to the
// querying peer; the delegated path asks each hub for its own peer
// consistent answers over OpPCA (the hubs read their leaves
// themselves), so the root receives answer sets instead of raw upstream
// data. Each node's transport is wrapped in a peernet.Meter, so the
// querying peer's round trips and bytes received are measured uniformly
// over the in-process and TCP transports.
func runB11(w io.Writer) error {
	const hubs, rows, flagged, noise = 4, 30, 6, 120
	q := foquery.MustParse("r0(X,Y)")
	vars := []string{"X", "Y"}
	fmt.Fprintf(w, "%-16s %-12s %-14s %-12s %-12s %s\n",
		"transport", "path", "pca-time", "round-trips", "recv-bytes", "notes")
	for _, tc := range []struct {
		name string
		mk   func() peernet.Transport
	}{
		{"inproc(200us)", func() peernet.Transport {
			ip := peernet.NewInProc()
			ip.Latency = 200 * time.Microsecond
			return ip
		}},
		{"tcp", func() peernet.Transport { return &peernet.TCP{} }},
	} {
		sys := workload.DelegationFanout(hubs, rows, flagged, noise, 1)
		shared := tc.mk()
		nodes := map[core.PeerID]*peernet.Node{}
		meters := map[core.PeerID]*peernet.Meter{}
		for _, id := range sys.Peers() {
			p, _ := sys.Peer(id)
			m := &peernet.Meter{T: shared}
			meters[id] = m
			n := peernet.NewNode(p, m, nil)
			n.Parallelism = benchParallelism
			if err := n.Start(":0"); err != nil {
				return err
			}
			defer n.Stop()
			nodes[id] = n
		}
		for _, n := range nodes {
			for _, m := range nodes {
				if n != m {
					n.SetNeighbor(m.Peer.ID, m.BoundAddr())
				}
			}
		}
		root, meter := nodes["P0"], meters["P0"]

		meter.Reset()
		central, dCentral, err := timedAnswers(func() ([]relation.Tuple, error) {
			return root.PeerConsistentAnswersFor(q, vars, true)
		})
		if err != nil {
			return err
		}
		cCalls, _, cRecv := meter.Stats()

		var info peernet.DelegationInfo
		meter.Reset()
		deleg, dDeleg, err := timedAnswers(func() (ans []relation.Tuple, err error) {
			ans, info, err = root.DelegatedAnswersInfo(q, vars, true)
			return ans, err
		})
		if err != nil {
			return err
		}
		dCalls, _, dRecv := meter.Stats()
		if !info.Delegated {
			return fmt.Errorf("B11 should delegate, fell back: %s", info.Reason)
		}
		if !reflect.DeepEqual(deleg, central) {
			return fmt.Errorf("delegated answers diverge on %s: %v vs %v", tc.name, deleg, central)
		}
		fmt.Fprintf(w, "%-16s %-12s %-14v %-12d %-12d pulls every hub and leaf relation\n",
			tc.name, "central", dCentral, cCalls, cRecv)
		fmt.Fprintf(w, "%-16s %-12s %-14v %-12d %-12d %d delegates, %d sub-tuples received\n",
			tc.name, "delegated", dDeleg, dCalls, dRecv, len(info.Delegates), info.SubTuples)
		if dRecv >= cRecv {
			return fmt.Errorf("delegation moved %d bytes to the root, central %d; expected strictly fewer", dRecv, cRecv)
		}
	}
	fmt.Fprintf(w, "expected shape: the delegated path receives answer sets (filtered hub\n")
	fmt.Fprintf(w, "rows) instead of raw hub+leaf relations, cutting the querying peer's\n")
	fmt.Fprintf(w, "bytes received; repair work runs at the hubs, where the data lives.\n")
	return nil
}

// runB12 measures the columnar memory plane on large universes: a
// selective query on the conflicted core relation of a
// workload.LargeUniverse system, answered through the repair engine
// over the full (unsliced) instance. The interesting columns are
// clone time — copy-on-write segment sharing makes it O(#relations),
// independent of fact count — and repair+answer allocs, which reduce
// to a constant handful per tuple (the cold per-run view/index build)
// plus a flat search-side term, because candidate instances share
// column segments with the original and deltas/visited-keys are
// bitsets over dense fact ids instead of rendered-string maps (the
// map-backed plane spent ~100 allocations per tuple here).
func runB12(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %-12s %-14s %-14s %-12s\n",
		"facts", "clone", "repair+answer", "allocs/run", "answers")
	for _, n := range []int{20000, 50000, 100000} {
		r, err := runCases(
			caseAt{fmt.Sprintf("B12/clone/facts=%d", n), 1},
			caseAt{fmt.Sprintf("B12/repair-answer/facts=%d", n), 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10d %-12v %-14v %-14d %-12d\n", n, r[0].d, r[1].d, r[1].allocs, len(r[1].res.([]relation.Tuple)))
	}
	fmt.Fprintf(w, "expected shape: clone stays flat (COW segment sharing, no per-tuple\n")
	fmt.Fprintf(w, "copying); allocs/run is the cold view/index build — a few allocations\n")
	fmt.Fprintf(w, "per tuple, vs ~100/tuple for the map-backed plane — plus a flat\n")
	fmt.Fprintf(w, "search-side term; time grows with the scan cost of the violation\n")
	fmt.Fprintf(w, "checks, not with allocation churn.\n")
	return nil
}
