package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/lp"
	"repro/internal/lp/ground"
	"repro/internal/lp/solve"
	"repro/internal/parallel"
	"repro/internal/peernet"
	"repro/internal/program"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/rewrite"
	"repro/internal/workload"
)

func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// timedAllocs is timed plus the run's heap allocation count (Mallocs
// delta). A GC runs first so the measured path pays only for its own
// garbage.
func timedAllocs(f func() error) (time.Duration, int64, error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	startMallocs := ms.Mallocs
	start := time.Now()
	err := f()
	d := time.Since(start)
	runtime.ReadMemStats(&ms)
	return d, int64(ms.Mallocs - startMallocs), err
}

// runB1 measures PCA latency vs instance size for the three engines on
// Example-1-shaped systems with a fixed number of conflicts. The
// repair-par column runs the repair engine with the -parallelism
// worker pool (results are checked identical to the sequential run).
func runB1(w io.Writer) error {
	par := benchParallelism
	fmt.Fprintf(w, "%-8s %-12s %-12s %-12s %-12s\n", "facts", "rewrite", "lp", "repair", "repair-par")
	for _, n := range []int{5, 10, 20, 40} {
		s := workload.Example1Shaped(n, 3, 2, 1)
		q := foquery.MustParse("r1(X,Y)")
		dRW, err := timed(func() error {
			_, e := rewrite.PCAByRewriting(s, "P1", "r1", []string{"X", "Y"}, rewrite.Options{})
			return e
		})
		if err != nil {
			return err
		}
		dLP, err := timed(func() error {
			_, e := program.PeerConsistentAnswersViaLP(s, "P1", q, []string{"X", "Y"}, program.RunOptions{})
			return e
		})
		if err != nil {
			return err
		}
		var seq []relation.Tuple
		dRep, err := timed(func() error {
			var e error
			seq, e = core.PeerConsistentAnswers(s, "P1", q, []string{"X", "Y"}, core.SolveOptions{Parallelism: 1})
			return e
		})
		if err != nil {
			return err
		}
		var parAns []relation.Tuple
		dPar, err := timed(func() error {
			var e error
			parAns, e = core.PeerConsistentAnswers(s, "P1", q, []string{"X", "Y"}, core.SolveOptions{Parallelism: par})
			return e
		})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(parAns, seq) {
			return fmt.Errorf("parallel repair disagrees at n=%d: %v vs %v", n, parAns, seq)
		}
		fmt.Fprintf(w, "%-8d %-12v %-12v %-12v %-12v\n", n, dRW, dLP, dRep, dPar)
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
		s := workload.IndependentConflicts(k)
		var nLP int
		dLP, err := timed(func() error {
			sols, e := program.SolutionsViaLP(s, "A", program.RunOptions{})
			nLP = len(sols)
			return e
		})
		if err != nil {
			return err
		}
		var nRep int
		dRep, err := timed(func() error {
			sols, e := core.SolutionsFor(s, "A", core.SolveOptions{})
			nRep = len(sols)
			return e
		})
		if err != nil {
			return err
		}
		if nLP != nRep {
			return fmt.Errorf("engines disagree at k=%d: %d vs %d", k, nLP, nRep)
		}
		fmt.Fprintf(w, "%-10d %-10d %-10d %-12v %-12v\n", k, 1<<k, nLP, dLP, dRep)
	}
	fmt.Fprintf(w, "expected shape: solutions double per conflict (Pi^p_2 blow-up).\n")
	return nil
}

// runB3 finds the crossover between the engines as conflicts grow with
// fixed clean data.
func runB3(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %-12s %-12s %-12s\n", "conflicts", "rewrite", "lp", "repair")
	for _, k := range []int{1, 2, 3, 4} {
		s := workload.Example1Shaped(10, 2, k, 1)
		q := foquery.MustParse("r1(X,Y)")
		dRW, err := timed(func() error {
			_, e := rewrite.PCAByRewriting(s, "P1", "r1", []string{"X", "Y"}, rewrite.Options{})
			return e
		})
		if err != nil {
			return err
		}
		dLP, err := timed(func() error {
			_, e := program.PeerConsistentAnswersViaLP(s, "P1", q, []string{"X", "Y"}, program.RunOptions{})
			return e
		})
		if err != nil {
			return err
		}
		dRep, err := timed(func() error {
			_, e := core.PeerConsistentAnswers(s, "P1", q, []string{"X", "Y"}, core.SolveOptions{})
			return e
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10d %-12v %-12v %-12v\n", k, dRW, dLP, dRep)
	}
	fmt.Fprintf(w, "expected shape: rewrite flat in k; lp and repair grow with 2^k.\n")
	return nil
}

// runB4 compares disjunctive solving against HCF-shifted solving
// (Section 4.1's optimization).
func runB4(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %-14s %-14s %-8s\n", "conflicts", "disjunctive", "shifted", "models")
	for _, k := range []int{2, 4, 6} {
		s := workload.IndependentConflicts(k)
		prog, _, err := program.BuildDirect(s, "A")
		if err != nil {
			return err
		}
		unfolded, err := lp.UnfoldChoice(prog)
		if err != nil {
			return err
		}
		g, err := ground.Ground(unfolded)
		if err != nil {
			return err
		}
		if !solve.HCF(g) {
			return fmt.Errorf("expected HCF program at k=%d", k)
		}
		var nPlain int
		dPlain, err := timed(func() error {
			ms, e := solve.StableModels(g, solve.Options{})
			nPlain = len(ms)
			return e
		})
		if err != nil {
			return err
		}
		sh, err := solve.Shift(g)
		if err != nil {
			return err
		}
		var nShift int
		dShift, err := timed(func() error {
			ms, e := solve.StableModels(sh, solve.Options{})
			nShift = len(ms)
			return e
		})
		if err != nil {
			return err
		}
		if nPlain != nShift {
			return fmt.Errorf("shift changed model count at k=%d: %d vs %d", k, nPlain, nShift)
		}
		fmt.Fprintf(w, "%-10d %-14v %-14v %-8d\n", k, dPlain, dShift, nPlain)
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
		s := workload.ReferentialShaped(1, 2, n, 1)
		prog, _, err := program.BuildDirect(s, "P")
		if err != nil {
			return err
		}
		unfolded, err := lp.UnfoldChoice(prog)
		if err != nil {
			return err
		}
		var g *ground.Program
		d, err := timed(func() error {
			var e error
			g, e = ground.Ground(unfolded)
			return e
		})
		if err != nil {
			return err
		}
		var gp *ground.Program
		dPar, err := timed(func() error {
			var e error
			// parallel.Workers resolves 0 to GOMAXPROCS, keeping the
			// flag's "0 = GOMAXPROCS" meaning for this column too
			// (ground.Options itself treats <=1 as sequential).
			gp, e = ground.GroundOpt(unfolded, ground.Options{Parallelism: parallel.Workers(benchParallelism)})
			return e
		})
		if err != nil {
			return err
		}
		if gp.String() != g.String() || !reflect.DeepEqual(gp.Atoms, g.Atoms) {
			return fmt.Errorf("parallel grounding diverged at n=%d", n)
		}
		fmt.Fprintf(w, "%-10d %-12v %-12v %-10d %-10d\n", n, d, dPar, len(g.Atoms), len(g.Rules))
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
	for _, cfg := range []struct {
		name        string
		latency     time.Duration
		tcp         bool
		parallelism int
		cacheTTL    time.Duration
	}{
		{"inproc(0ms)", 0, false, 1, 0},
		{"inproc(1ms)", time.Millisecond, false, 1, 0},
		{"inproc(1ms,par)", time.Millisecond, false, benchParallelism, 0},
		{"inproc(1ms,cached)", time.Millisecond, false, 1, time.Minute},
		{"inproc(5ms)", 5 * time.Millisecond, false, 1, 0},
		{"inproc(5ms,par)", 5 * time.Millisecond, false, benchParallelism, 0},
		{"tcp(loopback)", 0, true, 1, 0},
	} {
		sys := core.Example1System()
		var tr peernet.Transport
		if cfg.tcp {
			tr = &peernet.TCP{}
		} else {
			ip := peernet.NewInProc()
			ip.Latency = cfg.latency
			tr = ip
		}
		nodes := map[core.PeerID]*peernet.Node{}
		for _, id := range sys.Peers() {
			p, _ := sys.Peer(id)
			n := peernet.NewNode(p, tr, nil)
			n.Parallelism = cfg.parallelism
			n.CacheTTL = cfg.cacheTTL
			if err := n.Start(":0"); err != nil {
				return err
			}
			defer n.Stop()
			nodes[id] = n
		}
		for _, n := range nodes {
			for _, m := range nodes {
				if n != m {
					n.SetNeighbor(m.Peer.ID, m.Addr)
				}
			}
		}
		if cfg.cacheTTL > 0 {
			// Warm the spec and relation caches; the timed run makes no
			// remote call.
			if _, err := nodes["P1"].Snapshot(false); err != nil {
				return err
			}
		}
		var got []relation.Tuple
		d, err := timed(func() error {
			var e error
			got, e = nodes["P1"].PeerConsistentAnswers(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, false)
			return e
		})
		if err != nil {
			return err
		}
		if len(got) != 3 {
			return fmt.Errorf("networked PCA wrong: %v", got)
		}
		fmt.Fprintf(w, "%-20s %-14v\n", cfg.name, d)
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
		s := workload.IndependentConflicts(k)
		prog, _, err := program.BuildDirect(s, "A")
		if err != nil {
			return err
		}
		unfolded, err := lp.UnfoldChoice(prog)
		if err != nil {
			return err
		}
		g, err := ground.Ground(unfolded)
		if err != nil {
			return err
		}
		var nWith, nWithout int
		dWith, err := timed(func() error {
			ms, e := solve.StableModels(g, solve.Options{})
			nWith = len(ms)
			return e
		})
		if err != nil {
			return err
		}
		dWithout, err := timed(func() error {
			ms, e := solve.StableModels(g, solve.Options{NoSupportPropagation: true})
			nWithout = len(ms)
			return e
		})
		if err != nil {
			return err
		}
		if nWith != nWithout {
			return fmt.Errorf("ablation changed models at k=%d", k)
		}
		fmt.Fprintf(w, "%-10d %-14v %-14v\n", k, dWith, dWithout)
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
	nodes := map[core.PeerID]*peernet.Node{}
	for _, id := range sys.Peers() {
		p, _ := sys.Peer(id)
		n := peernet.NewNode(p, ip, nil)
		n.Parallelism = benchParallelism
		n.CacheTTL = time.Minute
		if err := n.Start(":0"); err != nil {
			return err
		}
		defer n.Stop()
		nodes[id] = n
	}
	for _, n := range nodes {
		for _, m := range nodes {
			if n != m {
				n.SetNeighbor(m.Peer.ID, m.Addr)
			}
		}
	}
	root := nodes["P0"]
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
	var slicedAns []relation.Tuple
	dSliced, err := timed(func() error {
		var e error
		slicedAns, e = root.PeerConsistentAnswersFor(q, vars, false)
		return e
	})
	if err != nil {
		return err
	}
	var full []relation.Tuple
	dFull, err := timed(func() error {
		var e error
		full, e = root.PeerConsistentAnswers(q, vars, false)
		return e
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(slicedAns, full) {
		return fmt.Errorf("sliced answers diverge: %v vs %v", slicedAns, full)
	}
	dRepeat, err := timed(func() error {
		var e error
		slicedAns, e = root.PeerConsistentAnswersFor(q, vars, false)
		return e
	})
	if err != nil {
		return err
	}
	// Update an irrelevant (bystander) relation: the slice-keyed answer
	// cache must keep serving hits, since the fingerprint only covers
	// relevant relations.
	bp, _ := sys.Peer(core.PeerID(fmt.Sprintf("B%d", width-1)))
	bp.Fact(fmt.Sprintf("b%d_r%d", width-1, relsPer-1), "late_key", "late_val")
	dAfterUpd, err := timed(func() error {
		var e error
		slicedAns, e = root.PeerConsistentAnswersFor(q, vars, false)
		return e
	})
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

// runB10 measures conflict-localized repair (ISSUE 5) on the
// scattered-conflict workload: k independent EGD conflicts on k
// disjoint relation pairs. The global wave search re-checks the whole
// database at each of its ~2^k states and intersects answers over the
// materialized 2^k repairs; the localized engine decomposes the
// conflict graph into k trivial components, searches each with
// incremental violation checking, and answers the (single-relation)
// query from the one component it touches — never materializing the
// cross-product.
func runB10(w io.Writer) error {
	fmt.Fprintf(w, "%-6s %-14s %-14s %-10s %-14s %-14s\n",
		"k", "cqa-global", "cqa-localized", "speedup", "solve-global", "solve-localized")
	for _, k := range []int{4, 8, 10} {
		s := workload.ScatteredConflicts(k, 20, 1)
		p, _ := s.Peer("A")
		deps := p.DECs["B"]
		inst := s.Global()
		q := foquery.MustParse("ra0(X,Y)")
		vars := []string{"X", "Y"}

		var ansG []relation.Tuple
		dCqaG, err := timed(func() error {
			var e error
			ansG, e = repair.ConsistentAnswers(inst.Clone(), deps, q, vars, repair.Options{NoLocalize: true, Parallelism: 1})
			return e
		})
		if err != nil {
			return err
		}
		var ansL []relation.Tuple
		dCqaL, err := timed(func() error {
			var e error
			ansL, e = repair.ConsistentAnswers(inst.Clone(), deps, q, vars, repair.Options{Parallelism: 1})
			return e
		})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(ansL, ansG) {
			return fmt.Errorf("localized CQA diverges at k=%d: %v vs %v", k, ansL, ansG)
		}

		var solsG, solsL []*relation.Instance
		dSolG, err := timed(func() error {
			var e error
			solsG, e = core.SolutionsFor(s, "A", core.SolveOptions{NoLocalize: true, Parallelism: 1})
			return e
		})
		if err != nil {
			return err
		}
		dSolL, err := timed(func() error {
			var e error
			solsL, e = core.SolutionsFor(s, "A", core.SolveOptions{Parallelism: 1})
			return e
		})
		if err != nil {
			return err
		}
		if !sameKeys(solsL, solsG) {
			return fmt.Errorf("localized solutions diverge at k=%d", k)
		}
		fmt.Fprintf(w, "%-6d %-14v %-14v %-10s %-14v %-14v\n",
			k, dCqaG, dCqaL, fmt.Sprintf("%.1fx", float64(dCqaG)/float64(dCqaL)), dSolG, dSolL)
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

		var central []relation.Tuple
		meter.Reset()
		dCentral, err := timed(func() error {
			var e error
			central, e = root.PeerConsistentAnswersFor(q, vars, true)
			return e
		})
		if err != nil {
			return err
		}
		cCalls, _, cRecv := meter.Stats()

		var deleg []relation.Tuple
		var info peernet.DelegationInfo
		meter.Reset()
		dDeleg, err := timed(func() error {
			var e error
			deleg, info, e = root.DelegatedAnswersInfo(q, vars, true)
			return e
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
	q := foquery.MustParse("q0(c0,Y)")
	vars := []string{"Y"}
	fmt.Fprintf(w, "%-10s %-12s %-14s %-14s %-12s\n",
		"facts", "clone", "repair+answer", "allocs/run", "answers")
	for _, n := range []int{20000, 50000, 100000} {
		s := workload.LargeUniverse(n, 4, 4, n/40, 1)
		p, _ := s.Peer("P0")
		deps := p.DECs["PK"]
		inst := s.Global()

		dClone, err := timed(func() error {
			inst.Clone()
			return nil
		})
		if err != nil {
			return err
		}
		var ans []relation.Tuple
		dAns, allocs, err := timedAllocs(func() error {
			var e error
			ans, e = repair.ConsistentAnswers(inst.Clone(), deps, q, vars, repair.Options{Parallelism: 1})
			return e
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10d %-12v %-14v %-14d %-12d\n", n, dClone, dAns, allocs, len(ans))
	}
	fmt.Fprintf(w, "expected shape: clone stays flat (COW segment sharing, no per-tuple\n")
	fmt.Fprintf(w, "copying); allocs/run is the cold view/index build — a few allocations\n")
	fmt.Fprintf(w, "per tuple, vs ~100/tuple for the map-backed plane — plus a flat\n")
	fmt.Fprintf(w, "search-side term; time grows with the scan cost of the violation\n")
	fmt.Fprintf(w, "checks, not with allocation churn.\n")
	return nil
}
