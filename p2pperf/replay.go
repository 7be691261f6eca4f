package main

import (
	"fmt"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/lp"
	"repro/internal/lp/ground"
	"repro/internal/lp/solve"
	"repro/internal/program"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/slice"
)

// replayed holds what one replay of a query's phases measured: the
// duration of each phase span by name, the local (non-network) part of
// the snapshot, and the engine's work counts.
type replayed struct {
	phase       map[string]time.Duration
	snapLocal   time.Duration
	solutions   int
	models      int
	groundRules int
}

// replayQuery re-runs, on the quiesced deployment, the phases the root
// goes through for query o, each through the layer's public entry point
// with the arguments Node.AnswerQuery passes (the slice's KeepDep and
// RelevantRels, the serving plane's per-query parallelism). Every phase
// is a span of request req under one "replay" root span; the snapshot's
// peernet calls nest under it through the root's traced transport.
func replayQuery(d *deployment, tr *tracer, req int64, o *op) (replayed, error) {
	out := replayed{phase: map[string]time.Duration{}}
	rootSpan := tr.newID()
	rootStart := time.Now()
	timed := func(name string, fn func() error) error {
		id := tr.newID()
		leave := tr.enter(req, id)
		start := time.Now()
		err := fn()
		end := time.Now()
		leave()
		s := span{Req: req, ID: id, Parent: rootSpan, Name: name, Start: tr.since(start), End: tr.since(end)}
		tr.record(s)
		out.phase[name] = s.dur()
		if name == "peernet.snapshot" {
			var iv [][2]time.Duration
			for _, c := range tr.snapshot() {
				if c.Parent == id {
					iv = append(iv, [2]time.Duration{c.Start, c.End})
				}
			}
			out.snapLocal = s.dur() - covered(iv, s.Start, s.End)
		}
		if err != nil {
			return fmt.Errorf("replay %s of %s: %w", name, o.query, err)
		}
		return nil
	}
	defer func() {
		tr.record(span{Req: req, ID: rootSpan, Name: "replay", Start: tr.since(rootStart), End: tr.since(time.Now())})
	}()

	f, err := foquery.Parse(o.query)
	if err != nil {
		return out, err
	}
	id := d.root.Peer.ID
	par := d.srv.Config().QueryParallelism
	var sys *core.System
	var sl *slice.Slice
	if err := timed("peernet.snapshot", func() (err error) {
		sys, sl, err = d.root.SnapshotFor(f, o.transitive)
		return err
	}); err != nil {
		return out, err
	}
	if err := timed("slice.forquery", func() error {
		_, err := slice.ForQuery(sys, id, f, o.transitive)
		return err
	}); err != nil {
		return out, err
	}
	if err := timed("slice.fingerprint", func() error {
		_, err := slice.DataFingerprint(sys, sl)
		return err
	}); err != nil {
		return out, err
	}
	rr := sl.RelevantRels()
	if o.transitive {
		return out, replayLP(timed, &out, sys, id, f, o.vars, par, sl.KeepDep, rr)
	}
	opts := core.SolveOptions{Parallelism: par, KeepDep: sl.KeepDep, RelevantRels: rr}
	if err := timed("core.pca", func() error {
		_, err := core.PeerConsistentAnswers(sys, id, f, o.vars, opts)
		return err
	}); err != nil {
		return out, err
	}
	var sols []*relation.Instance
	if err := timed("core.solutions", func() (err error) {
		sols, err = core.SolutionsFor(sys, id, opts)
		return err
	}); err != nil {
		return out, err
	}
	out.solutions = len(sols)
	if len(sols) == 0 {
		return out, fmt.Errorf("replay of %s: no solutions", o.query)
	}
	p, _ := sys.Peer(id)
	restricted := make([]*relation.Instance, len(sols))
	for i, s := range sols {
		restricted[i] = s.Restrict(p.Schema)
	}
	if err := timed("repair.intersect", func() error {
		_, err := repair.IntersectAnswersOpt(restricted, f, o.vars, repair.Options{Parallelism: par})
		return err
	}); err != nil {
		return out, err
	}
	return out, timed("foquery.answers", func() error {
		_, err := foquery.Answers(restricted[0], f, o.vars)
		return err
	})
}

// replayLP replays the transitive engine: the whole entry point
// (program.PeerConsistentAnswersViaLP), then its build, ground and solve
// steps one by one with the options that entry point derives.
func replayLP(timed func(string, func() error) error, out *replayed, sys *core.System, id core.PeerID,
	f foquery.Formula, vars []string, par int, keep func(*constraint.Dependency) bool, rr map[string]bool) error {
	ropts := program.RunOptions{Transitive: true, Parallelism: par, KeepDep: keep, RelevantRels: rr}
	if err := timed("program.pca", func() error {
		_, err := program.PeerConsistentAnswersViaLP(sys, id, f, vars, ropts)
		return err
	}); err != nil {
		return err
	}
	var prog *lp.Program
	var naming *program.Naming
	if err := timed("program.build", func() (err error) {
		prog, naming, err = program.BuildTransitiveOpt(sys, id, program.BuildOptions{KeepDep: keep, RelevantRels: rr})
		return err
	}); err != nil {
		return err
	}
	// The grounder's relevance seeds, as program.RunOptions derives them:
	// the sliced relations plus their primed versions.
	seeds := make(map[string]bool, 2*len(rr))
	for rel := range rr {
		seeds[rel] = true
		if p, ok := naming.Primed[rel]; ok {
			seeds[p] = true
		}
	}
	var g *ground.Program
	if err := timed("lp.ground", func() error {
		u, err := lp.UnfoldChoice(prog)
		if err != nil {
			return err
		}
		g, err = ground.GroundOpt(u, ground.Options{Parallelism: par, Relevant: seeds})
		return err
	}); err != nil {
		return err
	}
	out.groundRules = len(g.Rules)
	return timed("lp.solve", func() error {
		models, err := solve.StableModels(g, solve.Options{Parallelism: par})
		out.models = len(models)
		return err
	})
}
