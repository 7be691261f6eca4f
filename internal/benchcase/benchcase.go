// Package benchcase is the table of benchmark cases: each case is one
// fixture plus the one operation measured on it. Three readers share
// the table, so a measured path is written once:
//
//   - the p2pbench -gate regression gate measures the cases that carry
//     a Gate stem;
//   - the root go test -bench suite runs BenchmarkGate and loops over
//     the sweep families (B1/..., B2/..., ...);
//   - the p2pbench report rows time the cases at their sweep points and
//     cross-check the results (parallel vs sequential, engine
//     agreement, localized vs global, model counts).
//
// `p2pbench -list` names the experiments; the case names below carry
// the experiment id as their first path element.
package benchcase

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/lp"
	"repro/internal/lp/ground"
	"repro/internal/lp/solve"
	"repro/internal/peernet"
	"repro/internal/program"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/rewrite"
	"repro/internal/serve"
	"repro/internal/slice"
	"repro/internal/workload"
)

// Case is one fixture plus the operation measured on it.
type Case struct {
	// Name is "<experiment>/<variant>[/<point>]", e.g. "B1/repair/n=40".
	Name string
	// Gate is the JSON stem of the p2pbench -gate metric measured on
	// this case: the gate writes <Gate>_ns, <Gate>_allocs_op and
	// <experiment>_norm, where <experiment> is the stem's first
	// "_"-separated word. Empty for cases the gate does not measure.
	Gate string
	// Reps is the gate's block size: how many back-to-back runs of the
	// op one gate measurement block times as a unit.
	Reps int
	// Setup builds the fixture at parallelism par (for operations that
	// take one) and returns the measured operation and a teardown that
	// releases the fixture (stops nodes). The op's result is what the
	// report rows cross-check: answer tuples, a solution or model
	// count, a ground program; nil where nothing is checked.
	Setup func(par int) (op func() (any, error), done func(), err error)
}

// gated lists the cases the gate measures, with the JSON stem and
// block size of each metric. One B12 or B14 run is orders of magnitude
// bigger than the others and garbage-collects internally, so two
// repetitions amortize enough and bound the gate's wall time.
var gated = []struct {
	name, stem string
	reps       int
}{
	{"B5/facts=100", "b5_ground_facts100", 20},
	{"B1/repair/n=40", "b1_repair_n40", 20},
	{"B9/sliced", "b9_sliced_wide", 20},
	{"B10/cqa-localized/k=8", "b10_localized_scatter", 20},
	{"B11/delegated", "b11_delegated_fanout", 20},
	{"B12/repair-answer/facts=20000", "b12_large_universe", 2},
	{"B13/serve-stream", "b13_serve_stream", 20},
	{"B14/churn-incr", "b14_churn_incr", 2},
}

// Cases is the table, in experiment order.
var Cases = build()

func build() []Case {
	var cs []Case
	for _, n := range []int{5, 10, 20, 40} {
		n := n
		cs = append(cs, engineCases("B1", fmt.Sprintf("n=%d", n), func() *core.System {
			return workload.Example1Shaped(n, 3, 2, 1)
		})...)
	}
	for _, k := range []int{1, 2, 3, 4, 5} {
		cs = append(cs, solutionCases(k)...)
	}
	for _, k := range []int{1, 2, 3, 4} {
		k := k
		cs = append(cs, engineCases("B3", fmt.Sprintf("k=%d", k), func() *core.System {
			return workload.Example1Shaped(10, 2, k, 1)
		})...)
	}
	for _, k := range []int{2, 4, 6} {
		cs = append(cs, solverCase("B4/disjunctive", k, false, solve.Options{}),
			solverCase("B4/shifted", k, true, solve.Options{}))
	}
	for _, n := range []int{10, 25, 50, 100} {
		cs = append(cs, groundCase(n))
	}
	cs = append(cs,
		networkCase("latency=0", 0, false),
		networkCase("latency=1ms", time.Millisecond, false),
		networkCase("latency=1ms/cached", time.Millisecond, true),
		networkCase("latency=5ms", 5*time.Millisecond, false),
		networkCase("tcp", -1, false),
	)
	for _, k := range []int{2, 4, 6} {
		cs = append(cs, solverCase("B8/with", k, false, solve.Options{}),
			solverCase("B8/without", k, false, solve.Options{NoSupportPropagation: true}))
	}
	cs = append(cs, wideCase("full", false), wideCase("sliced", true))
	for _, k := range []int{4, 8, 10} {
		cs = append(cs, scatteredCases(k)...)
	}
	cs = append(cs, delegatedCase())
	for _, n := range []int{20000, 50000, 100000} {
		cs = append(cs, largeCases(n)...)
	}
	cs = append(cs, serveCase(), churnCase())

	for _, g := range gated {
		found := false
		for i := range cs {
			if cs[i].Name == g.name {
				cs[i].Gate, cs[i].Reps, found = g.stem, g.reps, true
			}
		}
		if !found {
			panic("benchcase: gated case " + g.name + " is not in the table")
		}
	}
	return cs
}

// opFunc is the measured operation of a case.
type opFunc = func() (any, error)

// inMemory adapts a fixture builder with nothing to tear down.
func inMemory(fixture func(par int) (opFunc, error)) func(int) (opFunc, func(), error) {
	return func(par int) (opFunc, func(), error) {
		op, err := fixture(par)
		return op, func() {}, err
	}
}

// engineCases is one case per answering engine (FO rewriting, LP,
// repair enumeration) for the query r1(X,Y) at peer P1 of the system
// build returns; each op returns the answer tuples.
func engineCases(exp, point string, build func() *core.System) []Case {
	vars := []string{"X", "Y"}
	return []Case{
		{Name: exp + "/rewrite/" + point, Setup: inMemory(func(int) (opFunc, error) {
			s := build()
			return func() (any, error) {
				return rewrite.PCAByRewriting(s, "P1", "r1", vars, rewrite.Options{})
			}, nil
		})},
		{Name: exp + "/lp/" + point, Setup: inMemory(func(par int) (opFunc, error) {
			s, q := build(), foquery.MustParse("r1(X,Y)")
			return func() (any, error) {
				return program.PeerConsistentAnswersViaLP(s, "P1", q, vars, program.RunOptions{Parallelism: par})
			}, nil
		})},
		{Name: exp + "/repair/" + point, Setup: inMemory(func(par int) (opFunc, error) {
			s, q := build(), foquery.MustParse("r1(X,Y)")
			return func() (any, error) {
				return core.PeerConsistentAnswers(s, "P1", q, vars, core.SolveOptions{Parallelism: par})
			}, nil
		})},
	}
}

// solutionCases enumerates the solutions of peer A over k independent
// conflicts through the LP route and the repair engine (B2). Each op
// returns the solution count and fails unless it is 2^k.
func solutionCases(k int) []Case {
	count := func(sols []*relation.Instance, err error) (any, error) {
		if err == nil && len(sols) != 1<<k {
			err = fmt.Errorf("k=%d: %d solutions, want %d", k, len(sols), 1<<k)
		}
		return len(sols), err
	}
	return []Case{
		{Name: fmt.Sprintf("B2/lp/k=%d", k), Setup: inMemory(func(par int) (opFunc, error) {
			s := workload.IndependentConflicts(k)
			return func() (any, error) {
				return count(program.SolutionsViaLP(s, "A", program.RunOptions{Parallelism: par}))
			}, nil
		})},
		{Name: fmt.Sprintf("B2/repair/k=%d", k), Setup: inMemory(func(par int) (opFunc, error) {
			s := workload.IndependentConflicts(k)
			return func() (any, error) {
				return count(core.SolutionsFor(s, "A", core.SolveOptions{Parallelism: par}))
			}, nil
		})},
	}
}

// unfoldDirect builds the direct specification program of peer id and
// unfolds its choice goals, ready for grounding.
func unfoldDirect(s *core.System, id core.PeerID) (*lp.Program, error) {
	prog, _, err := program.BuildDirect(s, id)
	if err != nil {
		return nil, err
	}
	return lp.UnfoldChoice(prog)
}

// solverCase counts the stable models of the ground direct program of
// peer A over k independent conflicts (B4, B8) under opt; with shift it
// solves the HCF-shifted program of Section 4.1 instead, and the
// fixture fails unless the program is head-cycle-free.
func solverCase(name string, k int, shift bool, opt solve.Options) Case {
	return Case{Name: fmt.Sprintf("%s/k=%d", name, k), Setup: inMemory(func(int) (opFunc, error) {
		u, err := unfoldDirect(workload.IndependentConflicts(k), "A")
		if err != nil {
			return nil, err
		}
		g, err := ground.Ground(u)
		if err == nil && shift {
			if !solve.HCF(g) {
				return nil, fmt.Errorf("k=%d: program is not head-cycle-free", k)
			}
			g, err = solve.Shift(g)
		}
		return func() (any, error) {
			ms, err := solve.StableModels(g, opt)
			return len(ms), err
		}, err
	})}
}

// groundCase grounds the unfolded direct program of a referential
// system with n satisfied facts (B5); the op returns the ground program.
func groundCase(n int) Case {
	return Case{Name: fmt.Sprintf("B5/facts=%d", n), Setup: inMemory(func(par int) (opFunc, error) {
		u, err := unfoldDirect(workload.ReferentialShaped(1, 2, n, 1), "P")
		return func() (any, error) {
			return ground.GroundOpt(u, ground.Options{Parallelism: par})
		}, err
	})}
}

// networkCase answers r1(X,Y) at P1 of Example 1 deployed as nodes on a
// fresh in-process transport with the given link latency, or on
// loopback TCP when latency is negative (B6): each neighbour costs 2
// round trips (spec export, then one batch fetch). cached warms
// P1's TTL spec and relation caches first, so the op makes no remote
// call. The op fails unless it returns the 3 peer consistent answers.
func networkCase(point string, latency time.Duration, cached bool) Case {
	return Case{Name: "B6/" + point, Setup: func(par int) (opFunc, func(), error) {
		var tr peernet.Transport = &peernet.TCP{}
		if latency >= 0 {
			ip := peernet.NewInProc()
			ip.Latency = latency
			tr = ip
		}
		nodes, stop, err := peernet.StartMesh(core.Example1System(), tr, par)
		if err != nil {
			return nil, nil, err
		}
		root := nodes["P1"]
		if cached {
			root.CacheTTL = time.Hour
			if _, err := root.Snapshot(false); err != nil {
				stop()
				return nil, nil, err
			}
		}
		q := foquery.MustParse("r1(X,Y)")
		return func() (any, error) {
			ans, err := root.PeerConsistentAnswers(q, []string{"X", "Y"}, false)
			if err == nil && len(ans) != 3 {
				err = fmt.Errorf("networked PCA = %v, want 3 answers", ans)
			}
			return ans, err
		}, stop, nil
	}}
}

// wideCase answers q0(X,Y) at P0 of the wide-universe workload in
// process (B9): full answering, or the relevance slice plus
// slice-restricted answering (the network-independent cost of the
// sliced pipeline).
func wideCase(variant string, sliced bool) Case {
	return Case{Name: "B9/" + variant, Setup: inMemory(func(par int) (opFunc, error) {
		s := workload.WideUniverse(8, 3, 40, 2, 1)
		q := foquery.MustParse("q0(X,Y)")
		vars := []string{"X", "Y"}
		return func() (any, error) {
			opt := core.SolveOptions{Parallelism: par}
			if sliced {
				sl, err := slice.ForQuery(s, "P0", q, false)
				if err != nil {
					return nil, err
				}
				opt.KeepDep, opt.RelevantRels = sl.KeepDep, sl.RelevantRels()
			}
			return core.PeerConsistentAnswers(s, "P0", q, vars, opt)
		}, nil
	})}
}

// scatteredCases contrast the global wave search with the
// conflict-localized engine on k conflicts scattered over disjoint
// relation pairs (B10): consistent answering of the single-relation
// query ra0(X,Y) (returns the answer tuples) and solution enumeration
// of peer A (returns the solutions).
func scatteredCases(k int) []Case {
	var cs []Case
	for _, localize := range []bool{false, true} {
		localize := localize
		mode := "global"
		if localize {
			mode = "localized"
		}
		cs = append(cs,
			Case{Name: fmt.Sprintf("B10/cqa-%s/k=%d", mode, k), Setup: inMemory(func(par int) (opFunc, error) {
				s := workload.ScatteredConflicts(k, 20, 1)
				p, _ := s.Peer("A")
				deps, inst := p.DECs["B"], s.Global()
				q := foquery.MustParse("ra0(X,Y)")
				return func() (any, error) {
					return repair.ConsistentAnswers(inst.Clone(), deps, q, []string{"X", "Y"},
						repair.Options{NoLocalize: !localize, Parallelism: par})
				}, nil
			})},
			Case{Name: fmt.Sprintf("B10/solve-%s/k=%d", mode, k), Setup: inMemory(func(par int) (opFunc, error) {
				s := workload.ScatteredConflicts(k, 20, 1)
				return func() (any, error) {
					return core.SolutionsFor(s, "A", core.SolveOptions{NoLocalize: !localize, Parallelism: par})
				}, nil
			})},
		)
	}
	return cs
}

// delegatedCase is delegated answering of r0(X,Y) at P0 of the
// delegation fanout workload over a zero-latency in-process overlay
// (B11): spec snapshot, delegation plan, OpPCA fan-out and the
// composed solve. The delegates' answer caches are warm after the
// first run, as on a long-lived node. The op fails if the plan falls
// back to the centralized path.
func delegatedCase() Case {
	return Case{Name: "B11/delegated", Setup: func(par int) (opFunc, func(), error) {
		nodes, stop, err := peernet.StartMesh(workload.DelegationFanout(3, 20, 4, 40, 1), peernet.NewInProc(), par)
		if err != nil {
			return nil, nil, err
		}
		root, q := nodes["P0"], foquery.MustParse("r0(X,Y)")
		return func() (any, error) {
			_, info, err := root.DelegatedAnswersInfo(q, []string{"X", "Y"}, true)
			if err == nil && !info.Delegated {
				err = fmt.Errorf("B11 should delegate, fell back: %s", info.Reason)
			}
			return nil, err
		}, stop, nil
	}}
}

// largeCases answer the selective query q0(c0,Y) over a large universe
// of n core facts plus bulk bystander relations through the repair
// engine on the full instance (B12; returns the answer tuples), and
// time the copy-on-write instance clone alone.
func largeCases(n int) []Case {
	fixture := func() (*relation.Instance, *core.Peer) {
		s := workload.LargeUniverse(n, 4, 4, n/40, 1)
		p, _ := s.Peer("P0")
		return s.Global(), p
	}
	return []Case{
		{Name: fmt.Sprintf("B12/repair-answer/facts=%d", n), Setup: inMemory(func(par int) (opFunc, error) {
			inst, p := fixture()
			deps, q := p.DECs["PK"], foquery.MustParse("q0(c0,Y)")
			return func() (any, error) {
				return repair.ConsistentAnswers(inst.Clone(), deps, q, []string{"Y"}, repair.Options{Parallelism: par})
			}, nil
		})},
		{Name: fmt.Sprintf("B12/clone/facts=%d", n), Setup: inMemory(func(int) (opFunc, error) {
			inst, _ := fixture()
			return func() (any, error) {
				inst.Clone()
				return nil, nil
			}, nil
		})},
	}
}

// serveCase replays a mixed read/write stream from one sequential
// client through a serve.Server over a warm in-process WideUniverse
// overlay (B13): admission, the snapshot/fingerprint/answer-cache
// bookkeeping of AnswerQuery and the UpdateLocal write path. The
// writes re-insert the same facts on every replay, so after the first
// run the fingerprints are stable and runs measure the warm steady
// state.
func serveCase() Case {
	return Case{Name: "B13/serve-stream", Setup: func(par int) (opFunc, func(), error) {
		nodes, stop, err := peernet.StartMesh(workload.WideUniverse(4, 2, 12, 1, 1), peernet.NewInProc(), par)
		if err != nil {
			return nil, nil, err
		}
		nodes["P0"].CacheTTL = time.Hour
		srv := serve.New(nodes["P0"], serve.Config{MaxConcurrent: 1, QueryParallelism: par})
		stream := workload.MixedStream(4, 2, 60, 6, 1)
		parsed := map[string]foquery.Formula{}
		for _, op := range stream {
			if !op.Write && parsed[op.Query] == nil {
				parsed[op.Query] = foquery.MustParse(op.Query)
			}
		}
		return func() (any, error) {
			for _, op := range stream {
				switch {
				case op.Write && op.Peer == "P0":
					if err := srv.Write(op.Rel, op.Tuple); err != nil {
						return nil, err
					}
				case op.Write:
					nodes[op.Peer].UpdateLocal(func(p *core.Peer) {
						p.Inst.Insert(op.Rel, relation.Tuple(op.Tuple))
					})
				default:
					if _, err := srv.Answer(parsed[op.Query], op.Vars, false); err != nil {
						return nil, err
					}
				}
			}
			return nil, nil
		}, stop, nil
	}}
}

// churnCase is a reversible churn loop over a warm ChurnUniverse
// deployment (B14): each step lands one relevant single-fact write at
// A and re-asks the hot query ra0(X,Y), which the incremental layer
// answers by patching its live series. The second half deletes the
// same facts, so every run starts from identical data and the journal
// never outruns its buffer. The op fails unless the run patched.
func churnCase() Case {
	return Case{Name: "B14/churn-incr", Setup: func(par int) (opFunc, func(), error) {
		nodes, stop, err := peernet.StartMesh(workload.ChurnUniverse(6, 120, 1), peernet.NewInProc(), par)
		if err != nil {
			return nil, nil, err
		}
		root, q, vars := nodes["A"], foquery.MustParse("ra0(X,Y)"), []string{"X", "Y"}
		root.CacheTTL = time.Hour
		if _, err := root.AnswerQuery(q, vars, peernet.QueryOptions{}); err != nil {
			stop()
			return nil, nil, err
		}
		const steps = 10
		return func() (any, error) {
			before, _, _ := root.IncrStats()
			for phase := 0; phase < 2; phase++ {
				for s := 0; s < steps; s++ {
					rel := fmt.Sprintf("ra%d", 1+s%5)
					tup := relation.Tuple{fmt.Sprintf("g%d", s), "v"}
					nodes["A"].UpdateLocal(func(p *core.Peer) {
						if phase == 0 {
							p.Inst.Insert(rel, tup)
						} else {
							p.Inst.Delete(rel, tup)
						}
					})
					if _, err := root.AnswerQuery(q, vars, peernet.QueryOptions{}); err != nil {
						return nil, err
					}
				}
			}
			if patched, seeded, fallbacks := root.IncrStats(); patched == before {
				return nil, fmt.Errorf("B14 churn loop never patched (seeded=%d fallbacks=%d): measuring the wrong path", seeded, fallbacks)
			}
			return nil, nil
		}, stop, nil
	}}
}
