package repair

import (
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

func example1() *relation.Instance {
	return mkInst(map[string][]relation.Tuple{
		"r1": {{"a", "b"}, {"s", "t"}},
		"r2": {{"c", "d"}, {"a", "e"}},
		"r3": {{"a", "f"}, {"s", "u"}},
	})
}

func TestConsistentInstanceIsItsOwnRepair(t *testing.T) {
	in := mkInst(map[string][]relation.Tuple{"r1": {{"a", "b"}}})
	deps := []*constraint.Dependency{constraint.FD("fd", "r1")}
	reps, err := Repairs(in, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || !reps[0].Equal(in) {
		t.Fatalf("repairs = %v", reps)
	}
}

func TestFDRepairsDeletions(t *testing.T) {
	// Classic CQA: r1(a,b), r1(a,c) under the FD gives two repairs.
	in := mkInst(map[string][]relation.Tuple{"r1": {{"a", "b"}, {"a", "c"}}})
	deps := []*constraint.Dependency{constraint.FD("fd", "r1")}
	reps, err := Repairs(in, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("want 2 repairs, got %d: %v", len(reps), reps)
	}
	for _, r := range reps {
		if r.Count("r1") != 1 {
			t.Fatalf("repair %v should keep exactly one tuple", r)
		}
	}
}

func TestInclusionRepairStage1Example1(t *testing.T) {
	// Stage one of Example 1: repair wrt Σ(P1,P2) with r2, r3 fixed.
	// The unique repair adds R1(c,d) and R1(a,e).
	in := example1()
	deps := []*constraint.Dependency{constraint.Inclusion("sigma12", "r2", "r1", 2)}
	reps, err := Repairs(in, deps, Options{Fixed: map[string]bool{"r2": true, "r3": true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("want 1 repair, got %d", len(reps))
	}
	r := reps[0]
	want := example1()
	want.Insert("r1", relation.Tuple{"c", "d"})
	want.Insert("r1", relation.Tuple{"a", "e"})
	if !r.Equal(want) {
		t.Fatalf("repair = %v, want %v", r, want)
	}
}

func TestInclusionRepairDeleteWhenSourceMutable(t *testing.T) {
	// If the source relation is mutable, the inclusion can also be
	// repaired by deleting the source tuple: two repairs.
	in := mkInst(map[string][]relation.Tuple{"r2": {{"c", "d"}}})
	deps := []*constraint.Dependency{constraint.Inclusion("inc", "r2", "r1", 2)}
	reps, err := Repairs(in, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("want 2 repairs, got %d: %v", len(reps), reps)
	}
}

func TestEGDStage2Example1(t *testing.T) {
	// Stage two of Example 1: starting from the stage-one repair,
	// repair wrt Σ(P1,P3) with r2 fixed, keeping Σ(P1,P2) satisfied.
	// The paper's two solutions r' and r'' must come out.
	in := example1()
	in.Insert("r1", relation.Tuple{"c", "d"})
	in.Insert("r1", relation.Tuple{"a", "e"})
	deps := []*constraint.Dependency{
		constraint.KeyEGD("sigma13", "r1", "r3"),
		constraint.Inclusion("sigma12", "r2", "r1", 2), // must stay satisfied
	}
	reps, err := Repairs(in, deps, Options{Fixed: map[string]bool{"r2": true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("want 2 repairs, got %d: %v", len(reps), reps)
	}
	// r' = all of R1 ∪ imports, R3 emptied.
	rp := mkInst(map[string][]relation.Tuple{
		"r1": {{"a", "b"}, {"s", "t"}, {"c", "d"}, {"a", "e"}},
		"r2": {{"c", "d"}, {"a", "e"}},
	})
	// r'' = R1 without (s,t), R3 keeps (s,u).
	rpp := mkInst(map[string][]relation.Tuple{
		"r1": {{"a", "b"}, {"c", "d"}, {"a", "e"}},
		"r2": {{"c", "d"}, {"a", "e"}},
		"r3": {{"s", "u"}},
	})
	found := map[string]bool{}
	for _, r := range reps {
		found[r.Key()] = true
	}
	if !found[rp.Key()] {
		t.Errorf("missing paper solution r' = %v; got %v", rp, reps)
	}
	if !found[rpp.Key()] {
		t.Errorf("missing paper solution r'' = %v; got %v", rpp, reps)
	}
}

func TestReferentialRepairWitnessFromFixedProvider(t *testing.T) {
	// Section 3.1 scenario: DEC (3) with S1, S2 fixed. Violation
	// R1(a,b), S1(c,b); S2 provides witnesses e and f. Repairs: delete
	// R1(a,b), or insert R2(a,e), or insert R2(a,f) — three repairs.
	in := mkInst(map[string][]relation.Tuple{
		"r1": {{"a", "b"}},
		"s1": {{"c", "b"}},
		"s2": {{"c", "e"}, {"c", "f"}},
	})
	deps := []*constraint.Dependency{constraint.Referential("dec3", "r1", "s1", "r2", "s2")}
	reps, err := Repairs(in, deps, Options{Fixed: map[string]bool{"s1": true, "s2": true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("want 3 repairs, got %d: %v", len(reps), reps)
	}
	var withAe, withAf, without int
	for _, r := range reps {
		switch {
		case r.Has("r2", relation.Tuple{"a", "e"}):
			withAe++
		case r.Has("r2", relation.Tuple{"a", "f"}):
			withAf++
		case !r.Has("r1", relation.Tuple{"a", "b"}):
			without++
		}
	}
	if withAe != 1 || withAf != 1 || without != 1 {
		t.Fatalf("repair shapes: ae=%d af=%d del=%d", withAe, withAf, without)
	}
}

func TestReferentialNoProviderForcesDeletion(t *testing.T) {
	// The aux2 case: S2 empty for z, so the only repair deletes R1.
	in := mkInst(map[string][]relation.Tuple{
		"r1": {{"d", "m"}},
		"s1": {{"z9", "m"}},
	})
	deps := []*constraint.Dependency{constraint.Referential("dec3", "r1", "s1", "r2", "s2")}
	reps, err := Repairs(in, deps, Options{Fixed: map[string]bool{"s1": true, "s2": true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].Count("r1") != 0 {
		t.Fatalf("repairs = %v", reps)
	}
}

func TestAllBodyAtomsFixedNoRepair(t *testing.T) {
	// A denial whose body is entirely fixed admits no repair.
	in := mkInst(map[string][]relation.Tuple{"p": {{"a"}}})
	deps := []*constraint.Dependency{{
		Name: "d",
		Body: []term.Atom{term.NewAtom("p", term.V("X"))},
	}}
	reps, err := Repairs(in, deps, Options{Fixed: map[string]bool{"p": true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 0 {
		t.Fatalf("want no repairs, got %v", reps)
	}
}

func TestMinimalityNoSubsumedRepairs(t *testing.T) {
	// Two independent FD conflicts: 2x2 = 4 repairs, all with delta 2.
	in := mkInst(map[string][]relation.Tuple{
		"r1": {{"a", "b"}, {"a", "c"}, {"x", "y"}, {"x", "z"}},
	})
	deps := []*constraint.Dependency{constraint.FD("fd", "r1")}
	reps, err := Repairs(in, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 4 {
		t.Fatalf("want 4 repairs, got %d", len(reps))
	}
	for _, r := range reps {
		if len(relation.SymDiff(in, r)) != 2 {
			t.Fatalf("non-minimal repair %v", r)
		}
	}
}

func TestRepairsAreConsistent(t *testing.T) {
	in := example1()
	deps := []*constraint.Dependency{
		constraint.Inclusion("sigma12", "r2", "r1", 2),
		constraint.KeyEGD("sigma13", "r1", "r3"),
	}
	reps, err := Repairs(in, deps, Options{Fixed: map[string]bool{"r2": true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) == 0 {
		t.Fatal("no repairs found")
	}
	for _, r := range reps {
		ok, err := allSatisfied(r, deps)
		if err != nil || !ok {
			t.Fatalf("repair %v does not satisfy constraints (%v)", r, err)
		}
	}
}

func TestConsistentAnswersFD(t *testing.T) {
	// CQA baseline: under the FD, only tuples not involved in
	// conflicts are consistent answers.
	in := mkInst(map[string][]relation.Tuple{
		"r1": {{"a", "b"}, {"a", "c"}, {"k", "v"}},
	})
	deps := []*constraint.Dependency{constraint.FD("fd", "r1")}
	q := foquery.MustParse("r1(X,Y)")
	ans, err := ConsistentAnswers(in, deps, q, []string{"X", "Y"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0].Key() != (relation.Tuple{"k", "v"}).Key() {
		t.Fatalf("consistent answers = %v", ans)
	}
}

func TestIntersectAnswersEmpty(t *testing.T) {
	ans, err := IntersectAnswers(nil, foquery.MustParse("r1(X,Y)"), []string{"X", "Y"})
	if err != nil || ans != nil {
		t.Fatalf("empty instances: %v %v", ans, err)
	}
}

func TestMaxRepairsStopsEarly(t *testing.T) {
	in := mkInst(map[string][]relation.Tuple{
		"r1": {{"a", "b"}, {"a", "c"}, {"x", "y"}, {"x", "z"}},
	})
	deps := []*constraint.Dependency{constraint.FD("fd", "r1")}
	reps, err := Repairs(in, deps, Options{MaxRepairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("MaxRepairs=1 gave %d repairs", len(reps))
	}
}

func TestDeltaBoundReported(t *testing.T) {
	in := mkInst(map[string][]relation.Tuple{"r2": {{"c", "d"}}})
	deps := []*constraint.Dependency{constraint.Inclusion("inc", "r2", "r1", 2)}
	_, err := Repairs(in, deps, Options{MaxDelta: -1})
	// Negative bound is treated as "no budget": the bound error must
	// surface rather than silently returning a partial set.
	if err != ErrBound {
		t.Fatalf("want ErrBound, got %v", err)
	}
}
