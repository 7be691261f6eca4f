// Package repro's root benchmarks: one testing.B benchmark per
// experiment of cmd/p2pbench (`p2pbench -list` names them). E-series
// fidelity checks appear as correctness-verifying benchmarks; the
// B-series sweeps and the gated cases come from the internal/benchcase
// table, which p2pbench's report rows and its -gate read too. Run
// everything with
//
//	go test -run NONE -bench=. -benchmem
//
// or through cmd/p2pbench, which prints the same series as tables.
package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/benchcase"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/lp"
	"repro/internal/lp/ground"
	"repro/internal/lp/solve"
	"repro/internal/program"
	"repro/internal/rewrite"
	"repro/internal/workload"
)

// BenchmarkE1SolutionsExample1 regenerates Example 1's two solutions.
func BenchmarkE1SolutionsExample1(b *testing.B) {
	s := core.Example1System()
	for i := 0; i < b.N; i++ {
		sols, err := core.SolutionsFor(s, "P1", core.SolveOptions{})
		if err != nil || len(sols) != 2 {
			b.Fatalf("solutions = %d, %v", len(sols), err)
		}
	}
}

// BenchmarkE2PCA regenerates Example 2's peer consistent answers, per
// engine.
func BenchmarkE2PCA(b *testing.B) {
	s := core.Example1System()
	q := foquery.MustParse("r1(X,Y)")
	b.Run("repair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ans, err := core.PeerConsistentAnswers(s, "P1", q, []string{"X", "Y"}, core.SolveOptions{})
			if err != nil || len(ans) != 3 {
				b.Fatalf("%v %v", ans, err)
			}
		}
	})
	b.Run("lp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ans, err := program.PeerConsistentAnswersViaLP(s, "P1", q, []string{"X", "Y"}, program.RunOptions{})
			if err != nil || len(ans) != 3 {
				b.Fatalf("%v %v", ans, err)
			}
		}
	})
	b.Run("rewrite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ans, err := rewrite.PCAByRewriting(s, "P1", "r1", []string{"X", "Y"}, rewrite.Options{})
			if err != nil || len(ans) != 3 {
				b.Fatalf("%v %v", ans, err)
			}
		}
	})
}

// BenchmarkE3DirectProgram regenerates the Section 3.1 answer sets.
func BenchmarkE3DirectProgram(b *testing.B) {
	s := core.Section31System()
	for i := 0; i < b.N; i++ {
		sols, err := program.SolutionsViaLP(s, "P", program.RunOptions{})
		if err != nil || len(sols) != 3 {
			b.Fatalf("solutions = %d, %v", len(sols), err)
		}
	}
}

// BenchmarkE4Shift regenerates the Example 3 shift equivalence.
func BenchmarkE4Shift(b *testing.B) {
	s := core.Section31System()
	for i := 0; i < b.N; i++ {
		sols, err := program.SolutionsViaLP(s, "P", program.RunOptions{UseShift: true})
		if err != nil || len(sols) != 3 {
			b.Fatalf("solutions = %d, %v", len(sols), err)
		}
	}
}

// BenchmarkE5LAV regenerates the appendix stable models.
func BenchmarkE5LAV(b *testing.B) {
	s := core.Section31System()
	prog, _, err := program.BuildLAV(s, "P")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		models, err := program.Solve(prog, program.RunOptions{})
		if err != nil || len(models) != 4 {
			b.Fatalf("models = %d, %v", len(models), err)
		}
	}
}

// BenchmarkE6Transitive regenerates Example 4's combined program run.
func BenchmarkE6Transitive(b *testing.B) {
	s := core.Example4System()
	for i := 0; i < b.N; i++ {
		sols, err := program.SolutionsViaLP(s, "P", program.RunOptions{Transitive: true})
		if err != nil || len(sols) != 3 {
			b.Fatalf("solutions = %d, %v", len(sols), err)
		}
	}
}

// BenchmarkE7LocalIC regenerates the local-IC pruning experiment.
func BenchmarkE7LocalIC(b *testing.B) {
	p := core.NewPeer("P").Declare("r1", 2).Declare("r2", 2).
		Fact("r1", "a", "b").Fact("r2", "a", "g").
		SetTrust("Q", core.TrustLess).
		AddDEC("Q", constraint.Referential("dec3", "r1", "s1", "r2", "s2")).
		AddIC(constraint.FD("fd_r2", "r2"))
	q := core.NewPeer("Q").Declare("s1", 2).Declare("s2", 2).
		Fact("s1", "c", "b").Fact("s2", "c", "e").Fact("s2", "c", "f")
	s := core.NewSystem().MustAddPeer(p).MustAddPeer(q)
	for i := 0; i < b.N; i++ {
		sols, err := program.SolutionsViaLP(s, "P", program.RunOptions{})
		if err != nil || len(sols) != 1 {
			b.Fatalf("solutions = %d, %v", len(sols), err)
		}
	}
}

// benchCase runs one table case as a sub-benchmark at parallelism par.
// The fixture is built on the first call (untimed) and torn down after
// the sub-benchmark; a case the -bench filter skips is never built.
func benchCase(b *testing.B, name string, c benchcase.Case, par int) {
	var op func() (any, error)
	done := func() {}
	b.Run(name, func(b *testing.B) {
		if op == nil {
			var err error
			if op, done, err = c.Setup(par); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := op(); err != nil {
				b.Fatal(err)
			}
		}
	})
	done()
}

// benchFamily runs every table case of one experiment ("B1", ...) as a
// sub-benchmark named after the rest of the case name.
func benchFamily(b *testing.B, exp string, par int) {
	for _, c := range benchcase.Cases {
		if rest, ok := strings.CutPrefix(c.Name, exp+"/"); ok {
			benchCase(b, rest, c, par)
		}
	}
}

// tableCase looks up a table case by name.
func tableCase(b *testing.B, name string) benchcase.Case {
	for _, c := range benchcase.Cases {
		if c.Name == name {
			return c
		}
	}
	b.Fatalf("no benchmark case %s", name)
	return benchcase.Case{}
}

// BenchmarkGate runs the cases p2pbench -gate measures, at the gate's
// Parallelism 1, so the gated paths can be profiled with the standard
// tooling:
//
//	go test -run NONE -bench 'Gate/B5' -cpuprofile cpu.prof .
func BenchmarkGate(b *testing.B) {
	for _, c := range benchcase.Cases {
		if c.Gate != "" {
			benchCase(b, c.Name, c, 1)
		}
	}
}

// BenchmarkB1PCAVsSize sweeps instance size per engine.
func BenchmarkB1PCAVsSize(b *testing.B) { benchFamily(b, "B1", 0) }

// BenchmarkB1PCAVsSizeParallel is the parallel variant of B1: the
// repair engine at Parallelism 1 vs 4 vs GOMAXPROCS on the largest B1
// workloads. On multi-core, par=4 tracks the sequential time divided by
// min(4, cores); par=1 is the byte-identical sequential baseline.
func BenchmarkB1PCAVsSizeParallel(b *testing.B) {
	for _, n := range []int{20, 40} {
		c := tableCase(b, fmt.Sprintf("B1/repair/n=%d", n))
		for _, par := range []int{1, 4, 0} {
			name := fmt.Sprintf("repair/par=%d/n=%d", par, n)
			if par == 0 {
				name = fmt.Sprintf("repair/par=max/n=%d", n)
			}
			benchCase(b, name, c, par)
		}
	}
}

// BenchmarkB2ConflictBlowup sweeps the number of independent conflicts.
func BenchmarkB2ConflictBlowup(b *testing.B) { benchFamily(b, "B2", 0) }

// BenchmarkB3Crossover sweeps conflicts at fixed size across engines.
func BenchmarkB3Crossover(b *testing.B) { benchFamily(b, "B3", 0) }

// BenchmarkB4ShiftAblation compares disjunctive and shifted solving.
func BenchmarkB4ShiftAblation(b *testing.B) { benchFamily(b, "B4", 0) }

// BenchmarkB5Grounding sweeps fact counts through the grounder.
func BenchmarkB5Grounding(b *testing.B) { benchFamily(b, "B5", 0) }

// BenchmarkB6Network measures networked PCA per transport, latency and
// cache setting: each neighbour costs 2 round trips (spec export, then
// one batch fetch), none with warm caches.
func BenchmarkB6Network(b *testing.B) { benchFamily(b, "B6", 0) }

// BenchmarkB6NetworkParallel contrasts sequential (2 round trips per
// neighbour) with 4-way concurrent fan-out (2 round trips in all) at
// 1ms link latency. The win is latency-bound, so it shows even on a
// single core.
func BenchmarkB6NetworkParallel(b *testing.B) {
	c := tableCase(b, "B6/latency=1ms")
	benchCase(b, "fanout=seq", c, 1)
	benchCase(b, "fanout=par4", c, 4)
}

// BenchmarkB7ChoiceUnfolding measures the choice-unfolding pipeline.
func BenchmarkB7ChoiceUnfolding(b *testing.B) {
	for _, v := range []int{1, 3, 5} {
		s := workload.ReferentialShaped(v, 2, 0, 1)
		prog, _, err := program.BuildDirect(s, "P")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("violations=%d", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u, err := lp.UnfoldChoice(prog)
				if err != nil {
					b.Fatal(err)
				}
				g, err := ground.Ground(u)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := solve.StableModels(g, solve.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkB8SupportPropagation ablates the solver's support pruning.
func BenchmarkB8SupportPropagation(b *testing.B) { benchFamily(b, "B8", 0) }

// BenchmarkB9WideUniverseSlicing contrasts full against sliced
// answering on the wide-universe workload (tiny query-relevant core,
// wide bystander overlay), in process.
func BenchmarkB9WideUniverseSlicing(b *testing.B) { benchFamily(b, "B9", 1) }

// BenchmarkB10ScatteredConflicts contrasts the global wave search
// against the conflict-localized engine on k independent conflicts
// scattered over disjoint relation pairs: consistent answering of a
// single-relation query (per-component evaluation, no cross-product
// materialization) and solution enumeration (composed cross-product).
func BenchmarkB10ScatteredConflicts(b *testing.B) { benchFamily(b, "B10", 1) }

// BenchmarkB12LargeUniverse measures the repair+answer hot path over
// large universes (workload.LargeUniverse): a selective query on the
// conflicted core relation, answered through the conflict-localized
// repair engine over the full (unsliced) instance, plus the instance
// clone alone. The allocs/op figure is the columnar-memory-plane
// acceptance metric: per-candidate instance clones dominate, so
// storage that clones by copy-on-write segment sharing instead of
// per-tuple map copying drops it by orders of magnitude.
func BenchmarkB12LargeUniverse(b *testing.B) { benchFamily(b, "B12", 1) }
