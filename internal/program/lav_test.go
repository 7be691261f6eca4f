package program

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestLAVSection31 reproduces the appendix through the generic LAV
// compiler: four answer sets, three distinct solutions, agreeing with
// both other engines.
func TestLAVSection31(t *testing.T) {
	s := core.Section31System()
	prog, naming, err := BuildLAV(s, "P")
	if err != nil {
		t.Fatal(err)
	}
	text := prog.String()
	for _, want := range []string{
		"r1_l(X1,X2,td) :- r1(X1,X2).",
		"r1_l(X1,X2,tss) :- r1_l(X1,X2,td), not r1_l(X1,X2,fa).",
		"r2_l(X1,X2,tss) :- r2_l(X1,X2,ta).",
		"aux2_lav_P_dec3(Z) :- s2_l(Z,W,td).",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("LAV program missing %q:\n%s", want, text)
		}
	}
	models, err := Solve(prog, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 4 {
		t.Fatalf("want the appendix's 4 stable models, got %d", len(models))
	}
	sols, err := ModelsToSolutionsLAV(s, naming, models)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SolutionsFor(s, "P", core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameInstances(want, sols) {
		t.Fatalf("LAV solutions differ:\ncore: %v\nlav:  %v", instKeys(want), instKeys(sols))
	}
}

// TestLAVExample1 checks the LAV route on Example 1 (EGD + import
// interplay through the td/ta/fa machinery).
func TestLAVExample1(t *testing.T) {
	s := core.Example1System()
	sols, err := SolutionsViaLAV(s, "P1", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SolutionsFor(s, "P1", core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameInstances(want, filterMinimal(s.Global(), sols)) {
		t.Fatalf("LAV solutions differ:\ncore: %v\nlav:  %v", instKeys(want), instKeys(sols))
	}
}

// TestLAVAgreesWithDirectRandom cross-validates the LAV and GAV
// compilers on random systems of both fixture shapes.
func TestLAVAgreesWithDirectRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	doms := []string{"a", "b", "c"}
	for trial := 0; trial < 30; trial++ {
		var s *core.System
		var id core.PeerID
		if trial%2 == 0 {
			s = randomExample1System(rng, doms)
			id = "P1"
		} else {
			s = randomSection31System(rng, doms)
			id = "P"
		}
		direct, err := SolutionsViaLP(s, id, RunOptions{})
		if err != nil {
			t.Fatalf("trial %d: direct: %v", trial, err)
		}
		lav, err := SolutionsViaLAV(s, id, RunOptions{})
		if err != nil {
			t.Fatalf("trial %d: lav: %v", trial, err)
		}
		g := s.Global()
		if !sameInstances(filterMinimal(g, direct), filterMinimal(g, lav)) {
			t.Fatalf("trial %d: engines disagree on %s\ndirect: %v\nlav:    %v",
				trial, g, instKeys(direct), instKeys(lav))
		}
	}
}
