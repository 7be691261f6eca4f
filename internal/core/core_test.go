package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/constraint"
	"repro/internal/foquery"
	"repro/internal/relation"
	"repro/internal/term"
)

func mkInst(facts map[string][]relation.Tuple) *relation.Instance {
	in := relation.NewInstance()
	for rel, ts := range facts {
		for _, t := range ts {
			in.Insert(rel, t)
		}
	}
	return in
}

func TestSystemConstruction(t *testing.T) {
	s := Example1System()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Peers(); len(got) != 3 {
		t.Fatalf("peers = %v", got)
	}
	if owner, _ := s.Owner("r2"); owner != "P2" {
		t.Fatalf("owner(r2) = %s", owner)
	}
	g := s.Global()
	if g.Size() != 6 {
		t.Fatalf("global size = %d", g.Size())
	}
}

func TestDisjointSchemasEnforced(t *testing.T) {
	s := NewSystem().MustAddPeer(NewPeer("A").Declare("r", 1))
	err := s.AddPeer(NewPeer("B").Declare("r", 2))
	if err == nil {
		t.Fatal("overlapping schemas must be rejected")
	}
}

func TestValidateRejectsThirdPartyDEC(t *testing.T) {
	a := NewPeer("A").Declare("ra", 1).
		AddDEC("B", constraint.Inclusion("bad", "rc", "ra", 1)).
		SetTrust("B", TrustLess)
	b := NewPeer("B").Declare("rb", 1)
	c := NewPeer("C").Declare("rc", 1)
	s := NewSystem().MustAddPeer(a).MustAddPeer(b).MustAddPeer(c)
	if err := s.Validate(); err == nil {
		t.Fatal("DEC mentioning a third peer's relation must be rejected")
	}
}

// relevantSchema returns R̄(P) (Definition 3(a)): P's schema extended
// with the other peers' schemas containing predicates in Σ(P).
func (s *System) relevantSchema(id PeerID) (*relation.Schema, error) {
	p, ok := s.peers[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown peer %s", id)
	}
	out := p.Schema.Union(relation.NewSchema())
	for _, deps := range p.DECs {
		for _, d := range deps {
			for pred := range d.Preds() {
				owner := s.owner[pred]
				if owner == "" {
					return nil, fmt.Errorf("core: DEC %s mentions undeclared relation %s", d.Name, pred)
				}
				out = out.Union(s.peers[owner].Schema)
			}
		}
	}
	return out, nil
}

func TestRelevantSchema(t *testing.T) {
	s := Example1System()
	sch, err := s.relevantSchema("P1")
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"r1", "r2", "r3"} {
		if !sch.Has(rel) {
			t.Fatalf("R̄(P1) missing %s", rel)
		}
	}
	sch2, err := s.relevantSchema("P2")
	if err != nil {
		t.Fatal(err)
	}
	if sch2.Has("r1") || sch2.Has("r3") {
		t.Fatalf("R̄(P2) should be just r2: %v", sch2.Relations())
	}
}

func TestTrustedPeers(t *testing.T) {
	s := Example1System()
	if got := s.TrustedPeers("P1", TrustLess); len(got) != 1 || got[0] != "P2" {
		t.Fatalf("less = %v", got)
	}
	if got := s.TrustedPeers("P1", TrustSame); len(got) != 1 || got[0] != "P3" {
		t.Fatalf("same = %v", got)
	}
}

// TestExample1Solutions reproduces the central result of Example 1:
// peer P1 has exactly the two solutions r' and r”.
func TestExample1Solutions(t *testing.T) {
	s := Example1System()
	sols, err := SolutionsFor(s, "P1", SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Fatalf("want 2 solutions, got %d: %v", len(sols), sols)
	}
	rp := mkInst(map[string][]relation.Tuple{
		"r1": {{"a", "b"}, {"s", "t"}, {"c", "d"}, {"a", "e"}},
		"r2": {{"c", "d"}, {"a", "e"}},
	})
	rpp := mkInst(map[string][]relation.Tuple{
		"r1": {{"a", "b"}, {"c", "d"}, {"a", "e"}},
		"r2": {{"c", "d"}, {"a", "e"}},
		"r3": {{"s", "u"}},
	})
	got := map[string]bool{sols[0].Key(): true, sols[1].Key(): true}
	if !got[rp.Key()] {
		t.Errorf("missing paper solution r' = %v", rp)
	}
	if !got[rpp.Key()] {
		t.Errorf("missing paper solution r'' = %v", rpp)
	}
}

// TestExample2PCA reproduces Example 2: the peer consistent answers to
// Q: R1(x,y) for P1 are exactly (a,b), (c,d), (a,e).
func TestExample2PCA(t *testing.T) {
	s := Example1System()
	q := foquery.MustParse("r1(X,Y)")
	ans, err := PeerConsistentAnswers(s, "P1", q, []string{"X", "Y"}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []relation.Tuple{{"a", "b"}, {"a", "e"}, {"c", "d"}}
	if !reflect.DeepEqual(ans, want) {
		t.Fatalf("PCAs = %v, want %v", ans, want)
	}
}

// TestPCAIncludesImportedTuples checks the paper's observation that a
// query may have peer consistent answers that are not answers over the
// peer in isolation ((c,d) and (a,e) are imported from P2).
func TestPCAIncludesImportedTuples(t *testing.T) {
	s := Example1System()
	p1, _ := s.Peer("P1")
	local, err := foquery.Answers(p1.Inst, foquery.MustParse("r1(X,Y)"), []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(local) != 2 {
		t.Fatalf("local answers = %v", local)
	}
	ans, err := PeerConsistentAnswers(s, "P1", foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) <= len(local) {
		t.Fatalf("PCAs %v should strictly contain local answers %v", ans, local)
	}
}

func TestQueryOutsideLanguageRejected(t *testing.T) {
	s := Example1System()
	// r2 belongs to P2; P1's queries are in L(P1).
	_, err := PeerConsistentAnswers(s, "P1", foquery.MustParse("r2(X,Y)"), []string{"X", "Y"}, SolveOptions{})
	if err == nil {
		t.Fatal("query outside L(P1) must be rejected")
	}
}

// TestSection31Solutions checks the three solutions of the Section 3.1
// scenario on the appendix instance.
func TestSection31Solutions(t *testing.T) {
	s := Section31System()
	sols, err := SolutionsFor(s, "P", SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 3 {
		t.Fatalf("want 3 solutions, got %d: %v", len(sols), sols)
	}
	// Deletion solution, insert-e solution, insert-f solution.
	var del, insE, insF bool
	for _, r := range sols {
		switch {
		case !r.Has("r1", relation.Tuple{"a", "b"}):
			del = true
		case r.Has("r2", relation.Tuple{"a", "e"}):
			insE = true
		case r.Has("r2", relation.Tuple{"a", "f"}):
			insF = true
		}
	}
	if !del || !insE || !insF {
		t.Fatalf("solution shapes: del=%v insE=%v insF=%v (%v)", del, insE, insF, sols)
	}
	// Q's relations are fixed in every solution.
	for _, r := range sols {
		if !r.Has("s1", relation.Tuple{"c", "b"}) || r.Count("s2") != 2 {
			t.Fatalf("Q's data changed in solution %v", r)
		}
	}
}

// TestSection31PCAQuery runs the query of Section 3.2,
// Q(x,z): ∃y (R1(x,y) ∧ R2(z,y)), against the solutions.
func TestSection31PCAQuery(t *testing.T) {
	s := Section31System()
	q := foquery.MustParse("exists Y (r1(X,Y) & r2(Z,Y))")
	ans, err := PeerConsistentAnswers(s, "P", q, []string{"X", "Z"}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// In the deletion solution R1 is empty, so no tuple is in all
	// solutions.
	if len(ans) != 0 {
		t.Fatalf("PCAs = %v, want none", ans)
	}
}

func TestNoSolutionsReported(t *testing.T) {
	// A violated denial DEC whose only body relation belongs to the
	// trusted (hence fixed) peer: no repair exists, so the peer has no
	// solutions — the paper reflects this as non-existence of answer
	// sets.
	a := NewPeer("A").Declare("ra", 1).
		SetTrust("B", TrustLess).
		AddDEC("B", &constraint.Dependency{
			Name: "imposs",
			Body: []term.Atom{term.NewAtom("rb", term.V("X"))},
		})
	b := NewPeer("B").Declare("rb", 1).Fact("rb", "x")
	s := NewSystem().MustAddPeer(a).MustAddPeer(b)
	_, err := PeerConsistentAnswers(s, "A", foquery.MustParse("ra(X)"), []string{"X"}, SolveOptions{})
	if err != ErrNoSolutions {
		t.Fatalf("want ErrNoSolutions, got %v", err)
	}
}

func TestLocalICsRespectedBySolutions(t *testing.T) {
	// Section 3.2: a local FD on r1 prunes solutions that would import
	// a second tuple with the same key.
	p1 := NewPeer("P1").Declare("r1", 2).
		Fact("r1", "a", "b").
		SetTrust("P2", TrustLess).
		AddDEC("P2", constraint.Inclusion("inc", "r2", "r1", 2)).
		AddIC(constraint.FD("fd_r1", "r1"))
	p2 := NewPeer("P2").Declare("r2", 2).Fact("r2", "a", "c")
	s := NewSystem().MustAddPeer(p1).MustAddPeer(p2)
	sols, err := SolutionsFor(s, "P1", SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The import of (a,c) forces dropping (a,b): the only repair
	// deletes r1(a,b) and inserts r1(a,c).
	if len(sols) != 1 {
		t.Fatalf("want 1 solution, got %d: %v", len(sols), sols)
	}
	if sols[0].Has("r1", relation.Tuple{"a", "b"}) || !sols[0].Has("r1", relation.Tuple{"a", "c"}) {
		t.Fatalf("solution = %v", sols[0])
	}
}

func TestUntrustedNeighborsIgnored(t *testing.T) {
	// DECs toward peers with no trust edge play no role (only peers
	// trusted at least as much as oneself are considered).
	p1 := NewPeer("P1").Declare("r1", 2).
		Fact("r1", "a", "b").
		AddDEC("P2", constraint.Inclusion("inc", "r2", "r1", 2))
	p2 := NewPeer("P2").Declare("r2", 2).Fact("r2", "c", "d")
	s := NewSystem().MustAddPeer(p1).MustAddPeer(p2)
	sols, err := SolutionsFor(s, "P1", SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || !sols[0].Equal(s.Global()) {
		t.Fatalf("untrusted DEC changed the instance: %v", sols)
	}
}

func TestIsPCA(t *testing.T) {
	s := Example1System()
	q := foquery.MustParse("r1(X,Y)")
	ok, err := IsPCA(s, "P1", q, []string{"X", "Y"}, relation.Tuple{"a", "b"}, SolveOptions{})
	if err != nil || !ok {
		t.Fatalf("(a,b) should be a PCA: %v %v", ok, err)
	}
	ok, err = IsPCA(s, "P1", q, []string{"X", "Y"}, relation.Tuple{"s", "t"}, SolveOptions{})
	if err != nil || ok {
		t.Fatalf("(s,t) should not be a PCA: %v %v", ok, err)
	}
}
