package program

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/relation"
	"repro/internal/term"
)

func sameInstances(a, b []*relation.Instance) bool {
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

func instKeys(insts []*relation.Instance) []string {
	out := make([]string, len(insts))
	for i, in := range insts {
		out[i] = in.String()
	}
	return out
}

// TestDirectProgramExample1 cross-validates the LP engine against the
// model-theoretic engine on the paper's Example 1: same two solutions.
func TestDirectProgramExample1(t *testing.T) {
	s := core.Example1System()
	want, err := core.SolutionsFor(s, "P1", core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolutionsViaLP(s, "P1", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameInstances(want, got) {
		t.Fatalf("LP solutions differ:\ncore: %v\nlp:   %v", instKeys(want), instKeys(got))
	}
	if len(got) != 2 {
		t.Fatalf("Example 1 must have 2 solutions, got %d", len(got))
	}
}

// TestDirectProgramSection31 cross-validates on the Section 3.1
// referential scenario: three solutions.
func TestDirectProgramSection31(t *testing.T) {
	s := core.Section31System()
	want, err := core.SolutionsFor(s, "P", core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolutionsViaLP(s, "P", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameInstances(want, got) {
		t.Fatalf("LP solutions differ:\ncore: %v\nlp:   %v", instKeys(want), instKeys(got))
	}
	if len(got) != 3 {
		t.Fatalf("Section 3.1 must have 3 solutions, got %d", len(got))
	}
}

// TestDirectProgramShape31 checks the emitted program has the paper's
// rule shapes (persistence, aux1, aux2, forced delete, choice).
func TestDirectProgramShape31(t *testing.T) {
	s := core.Section31System()
	prog, naming, err := BuildDirect(s, "P")
	if err != nil {
		t.Fatal(err)
	}
	text := prog.String()
	for _, want := range []string{
		"r1_p(X1,X2) :- r1(X1,X2), not -r1_p(X1,X2).",                                                   // rule (4)
		"r2_p(X1,X2) :- r2(X1,X2), not -r2_p(X1,X2).",                                                   // rule (5)
		"aux1_P_dec3(X,Z) :- r2(X,W), s2(Z,W).",                                                         // rule (7)
		"aux2_P_dec3(Z) :- s2(Z,W).",                                                                    // rule (8)
		"-r1_p(X,Y) :- r1(X,Y), s1(Z,Y), not aux1_P_dec3(X,Z), not aux2_P_dec3(Z).",                     // rule (6)
		"-r1_p(X,Y) v r2_p(X,W) :- r1(X,Y), s1(Z,Y), s2(Z,W), not aux1_P_dec3(X,Z), choice((X,Z),(W)).", // rule (9)
	} {
		if !strings.Contains(text, want) {
			t.Errorf("program missing rule %q:\n%s", want, text)
		}
	}
	if naming.Primed["r1"] != "r1_p" || naming.Primed["r2"] != "r2_p" {
		t.Fatalf("naming = %+v", naming.Primed)
	}
}

// TestTransitiveExample4 reproduces Example 4: the combined program has
// exactly the paper's three solutions, which the direct case misses.
func TestTransitiveExample4(t *testing.T) {
	s := core.Example4System()

	// Direct case: P's DEC is satisfied (s1 is empty), sole solution is
	// the original instance.
	direct, err := SolutionsViaLP(s, "P", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != 1 || !direct[0].Equal(s.Global()) {
		t.Fatalf("direct solutions = %v", instKeys(direct))
	}

	// Transitive case: Q first imports U into S1; P must then react.
	got, err := SolutionsViaLP(s, "P", RunOptions{Transitive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("want the paper's 3 solutions, got %d: %v", len(got), instKeys(got))
	}
	for _, sol := range got {
		// In every solution Q has imported S1(c,b) and kept S2.
		if !sol.Has("s1", relation.Tuple{"c", "b"}) || sol.Count("s2") != 2 || !sol.Has("u", relation.Tuple{"c", "b"}) {
			t.Fatalf("upstream repair wrong in %v", sol)
		}
	}
	var del, insE, insF bool
	for _, sol := range got {
		switch {
		case !sol.Has("r1", relation.Tuple{"a", "b"}):
			del = true
		case sol.Has("r2", relation.Tuple{"a", "e"}):
			insE = true
		case sol.Has("r2", relation.Tuple{"a", "f"}):
			insF = true
		}
	}
	if !del || !insE || !insF {
		t.Fatalf("solution shapes: del=%v insE=%v insF=%v\n%v", del, insE, insF, instKeys(got))
	}
}

// TestPCAViaLPAgreesWithCore checks Definition 5 computed through the
// program equals the model-theoretic PCAs (Example 2).
func TestPCAViaLPAgreesWithCore(t *testing.T) {
	s := core.Example1System()
	q := foquery.MustParse("r1(X,Y)")
	want, err := core.PeerConsistentAnswers(s, "P1", q, []string{"X", "Y"}, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := PeerConsistentAnswersViaLP(s, "P1", q, []string{"X", "Y"}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 || len(got) != len(want) {
		t.Fatalf("PCAs: core=%v lp=%v", want, got)
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("PCAs differ: core=%v lp=%v", want, got)
		}
	}
}

// TestConjunctiveQueryProgram exercises the Section 3.2 query-program
// route: AnsQ(x,z) :- R'1(x,y), R'2(z,y) under skeptical semantics.
func TestConjunctiveQueryProgram(t *testing.T) {
	s := core.Section31System()
	prog, naming, err := BuildDirect(s, "P")
	if err != nil {
		t.Fatal(err)
	}
	// Q(x,z): ∃y (R1(x,y) ∧ R2(z,y)) — atoms rewritten onto primed
	// relations by ConjunctiveQueryProgram.
	qp, err := ConjunctiveQueryProgram(prog, naming, []term.Atom{
		term.NewAtom("r1", term.V("X"), term.V("Y")),
		term.NewAtom("r2", term.V("Z"), term.V("Y")),
	}, nil, []string{"X", "Z"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qp.String(), "ans(X,Z) :- r1_p(X,Y), r2_p(Z,Y).") {
		t.Fatalf("query rule missing:\n%s", qp)
	}
	ans, has, err := CautiousAnswers(qp, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !has {
		t.Fatal("program should have answer sets")
	}
	// The deletion solution empties R1, so no cautious answers — in
	// agreement with the Definition 5 computation in core_test.
	if len(ans) != 0 {
		t.Fatalf("cautious answers = %v, want none", ans)
	}
	// Unsafe query rules are rejected.
	if _, err := ConjunctiveQueryProgram(prog, naming, []term.Atom{
		term.NewAtom("r1", term.V("X"), term.V("Y")),
	}, nil, []string{"Z"}); err == nil {
		t.Fatal("unsafe query variable must be rejected")
	}
}

// TestLocalICDenialLayer contrasts the two treatments of local ICs the
// paper offers in Section 3.2 (experiment E7). The LP compiler uses the
// first: the FD becomes a program denial constraint that *prunes*
// solutions violating it. The model-theoretic engine implements
// condition (a) of Definition 4 directly and may additionally *repair*
// the local IC (the paper's "more flexible alternative" of a second
// repair layer). With r2 = {(a,g)} and the FD on r2:
//
//   - pruning semantics: inserting (a,e)/(a,f) violates the FD, so only
//     the deletion solution survives;
//   - repairing semantics: the insert solutions survive by additionally
//     dropping (a,g).
func TestLocalICDenialLayer(t *testing.T) {
	s := section31WithFD()
	sols, err := SolutionsViaLP(s, "P", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Fatalf("denial layer: want 1 solution, got %d: %v", len(sols), instKeys(sols))
	}
	if sols[0].Has("r1", relation.Tuple{"a", "b"}) || !sols[0].Has("r2", relation.Tuple{"a", "g"}) {
		t.Fatalf("deletion solution expected, got %v", sols[0])
	}

	repairing, err := core.SolutionsFor(s, "P", core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(repairing) != 3 {
		t.Fatalf("repairing semantics: want 3 solutions, got %d: %v", len(repairing), instKeys(repairing))
	}
	// Every pruned solution is also a repairing solution.
	keys := map[string]bool{}
	for _, r := range repairing {
		keys[r.Key()] = true
	}
	for _, p := range sols {
		if !keys[p.Key()] {
			t.Fatalf("pruned solution %v not among repairing solutions %v", p, instKeys(repairing))
		}
	}
}

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

// TestRejectsCyclicDECs: insertion targets appearing in DEC bodies are
// outside the supported class and must be rejected.
func TestRejectsCyclicDECs(t *testing.T) {
	p := core.NewPeer("P").Declare("r1", 2).Declare("r2", 2).
		Fact("r1", "a", "b").
		SetTrust("Q", core.TrustLess).
		AddDEC("Q", constraint.Referential("dec3", "r1", "s1", "r2", "s2")).
		AddDEC("Q", constraint.KeyEGD("egd", "r2", "s1"))
	q := core.NewPeer("Q").Declare("s1", 2).Declare("s2", 2).Fact("s1", "c", "b")
	s := core.NewSystem().MustAddPeer(p).MustAddPeer(q)
	if _, _, err := BuildDirect(s, "P"); err == nil {
		t.Fatal("cyclic DEC set must be rejected")
	}
}

// TestRandomCrossValidation compares the two engines on randomized
// Example-1-shaped systems: inclusion import plus key EGD under
// less/same trust. The LP solutions, filtered to ≤r-minimal ones,
// must equal the repair-based solutions.
func TestRandomCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	doms := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 40; trial++ {
		s := randomExample1System(rng, doms)
		want, err := core.SolutionsFor(s, "P1", core.SolveOptions{})
		if err != nil {
			t.Fatalf("trial %d: core: %v", trial, err)
		}
		lpSols, err := SolutionsViaLP(s, "P1", RunOptions{})
		if err != nil {
			t.Fatalf("trial %d: lp: %v", trial, err)
		}
		got := filterMinimal(s.Global(), lpSols)
		if !sameInstances(want, got) {
			t.Fatalf("trial %d: engines disagree on %s\ncore: %v\nlp:   %v",
				trial, s.Global(), instKeys(want), instKeys(got))
		}
	}
}

func randomExample1System(rng *rand.Rand, dom []string) *core.System {
	pick := func() string { return dom[rng.Intn(len(dom))] }
	p1 := core.NewPeer("P1").Declare("r1", 2).
		SetTrust("P2", core.TrustLess).SetTrust("P3", core.TrustSame).
		AddDEC("P2", constraint.Inclusion("inc", "r2", "r1", 2)).
		AddDEC("P3", constraint.KeyEGD("egd", "r1", "r3"))
	p2 := core.NewPeer("P2").Declare("r2", 2)
	p3 := core.NewPeer("P3").Declare("r3", 2)
	for i := 0; i < 2+rng.Intn(2); i++ {
		p1.Fact("r1", pick(), pick())
	}
	for i := 0; i < 1+rng.Intn(2); i++ {
		p2.Fact("r2", pick(), pick())
	}
	for i := 0; i < 1+rng.Intn(2); i++ {
		p3.Fact("r3", pick(), pick())
	}
	return core.NewSystem().MustAddPeer(p1).MustAddPeer(p2).MustAddPeer(p3)
}

// TestRandomCrossValidationReferential does the same for Section
// 3.1-shaped systems (referential DEC with choice).
func TestRandomCrossValidationReferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	doms := []string{"a", "b", "c"}
	for trial := 0; trial < 40; trial++ {
		s := randomSection31System(rng, doms)
		want, err := core.SolutionsFor(s, "P", core.SolveOptions{})
		if err != nil {
			t.Fatalf("trial %d: core: %v", trial, err)
		}
		lpSols, err := SolutionsViaLP(s, "P", RunOptions{})
		if err != nil {
			t.Fatalf("trial %d: lp: %v", trial, err)
		}
		got := filterMinimal(s.Global(), lpSols)
		if !sameInstances(want, got) {
			t.Fatalf("trial %d: engines disagree on %s\ncore: %v\nlp:   %v",
				trial, s.Global(), instKeys(want), instKeys(got))
		}
	}
}

func randomSection31System(rng *rand.Rand, dom []string) *core.System {
	pick := func() string { return dom[rng.Intn(len(dom))] }
	p := core.NewPeer("P").Declare("r1", 2).Declare("r2", 2).
		SetTrust("Q", core.TrustLess).
		AddDEC("Q", constraint.Referential("dec3", "r1", "s1", "r2", "s2"))
	q := core.NewPeer("Q").Declare("s1", 2).Declare("s2", 2)
	for i := 0; i < 1+rng.Intn(2); i++ {
		p.Fact("r1", pick(), pick())
	}
	for i := 0; i < rng.Intn(2); i++ {
		p.Fact("r2", pick(), pick())
	}
	for i := 0; i < 1+rng.Intn(2); i++ {
		q.Fact("s1", pick(), pick())
	}
	for i := 0; i < rng.Intn(3); i++ {
		q.Fact("s2", pick(), pick())
	}
	return core.NewSystem().MustAddPeer(p).MustAddPeer(q)
}

// TestShiftGivesSameSolutions: Section 4.1 — solving the HCF-shifted
// program yields the same solutions.
func TestShiftGivesSameSolutions(t *testing.T) {
	for _, sys := range []*core.System{core.Example1System(), core.Section31System()} {
		id := sys.Peers()[0]
		plain, err := SolutionsViaLP(sys, id, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		shifted, err := SolutionsViaLP(sys, id, RunOptions{UseShift: true})
		if err != nil {
			t.Fatal(err)
		}
		if !sameInstances(plain, shifted) {
			t.Fatalf("shifted solving differs for peer %s:\nplain:  %v\nshifted:%v",
				id, instKeys(plain), instKeys(shifted))
		}
	}
}
