package constraint

import (
	"strings"
	"testing"

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

func TestInclusionViolations(t *testing.T) {
	// Σ(P1,P2): ∀xy(R2(x,y) → R1(x,y)); violated by (c,d) and (a,e).
	d := Inclusion("sigma12", "r2", "r1", 2)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	in := example1()
	vs, err := d.Violations(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("violations = %v", vs)
	}
	ok, err := d.Satisfied(in)
	if err != nil || ok {
		t.Fatalf("Satisfied = %v, %v", ok, err)
	}
	// After the stage-one repair of Example 1 the DEC holds.
	in.Insert("r1", relation.Tuple{"c", "d"})
	in.Insert("r1", relation.Tuple{"a", "e"})
	ok, err = d.Satisfied(in)
	if err != nil || !ok {
		t.Fatalf("after repair: Satisfied = %v, %v", ok, err)
	}
}

func TestKeyEGDViolations(t *testing.T) {
	// Σ(P1,P3): ∀xyz(R1(x,y) ∧ R3(x,z) → y = z).
	d := KeyEGD("sigma13", "r1", "r3")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	in := example1()
	vs, err := d.Violations(in)
	if err != nil {
		t.Fatal(err)
	}
	// (a,b)-(a,f) and (s,t)-(s,u).
	if len(vs) != 2 {
		t.Fatalf("violations = %v", vs)
	}
	// On the stage-one repaired instance there is one more: (a,e)-(a,f).
	in.Insert("r1", relation.Tuple{"c", "d"})
	in.Insert("r1", relation.Tuple{"a", "e"})
	vs, err = d.Violations(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("violations after import = %d: %v", len(vs), vs)
	}
}

func TestReferentialDEC(t *testing.T) {
	// DEC (3) of Section 3.1 on the appendix instance:
	// r1 = {(a,b)}, s1 = {(c,b)}, r2 = {}, s2 = {(c,e),(c,f)}.
	d := Referential("dec3", "r1", "s1", "r2", "s2")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	in := mkInst(map[string][]relation.Tuple{
		"r1": {{"a", "b"}},
		"s1": {{"c", "b"}},
		"s2": {{"c", "e"}, {"c", "f"}},
	})
	vs, err := d.Violations(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	// Inserting R2(a,f) provides the witness w = f.
	in.Insert("r2", relation.Tuple{"a", "f"})
	ok, err := d.Satisfied(in)
	if err != nil || !ok {
		t.Fatalf("after witness insert: %v %v", ok, err)
	}
}

func TestReferentialNoWitnessProvider(t *testing.T) {
	// If S2 has no tuple for z, no witness can exist even after
	// inserting into R2 (the aux2 case of rule (6) in the paper).
	d := Referential("dec3", "r1", "s1", "r2", "s2")
	in := mkInst(map[string][]relation.Tuple{
		"r1": {{"d", "m"}},
		"s1": {{"z9", "m"}},
	})
	vs, err := d.Violations(in)
	if err != nil || len(vs) != 1 {
		t.Fatalf("violations = %v, %v", vs, err)
	}
	in.Insert("r2", relation.Tuple{"d", "t"})
	// Still violated: S2(z9, t) is missing.
	ok, err := d.Satisfied(in)
	if err != nil || ok {
		t.Fatalf("should remain violated: %v %v", ok, err)
	}
}

func TestDenial(t *testing.T) {
	d := &Dependency{
		Name: "denial",
		Body: []term.Atom{
			term.NewAtom("p", term.V("X")),
			term.NewAtom("q", term.V("X")),
		},
	}
	if !d.IsDenial() {
		t.Fatal("IsDenial")
	}
	in := mkInst(map[string][]relation.Tuple{"p": {{"a"}}, "q": {{"b"}}})
	ok, err := d.Satisfied(in)
	if err != nil || !ok {
		t.Fatalf("disjoint p,q should satisfy denial: %v %v", ok, err)
	}
	in.Insert("q", relation.Tuple{"a"})
	ok, err = d.Satisfied(in)
	if err != nil || ok {
		t.Fatalf("overlap should violate denial: %v %v", ok, err)
	}
}

func TestFD(t *testing.T) {
	d := FD("fd_r1", "r1")
	in := mkInst(map[string][]relation.Tuple{"r1": {{"a", "b"}, {"a", "c"}}})
	ok, err := d.Satisfied(in)
	if err != nil || ok {
		t.Fatalf("FD should be violated: %v %v", ok, err)
	}
	in.Delete("r1", relation.Tuple{"a", "c"})
	ok, err = d.Satisfied(in)
	if err != nil || !ok {
		t.Fatalf("FD should hold: %v %v", ok, err)
	}
}

func TestConditionFilters(t *testing.T) {
	// ∀x,y (p(x,y) ∧ x != y → q(x)).
	d := &Dependency{
		Name: "cond",
		Body: []term.Atom{term.NewAtom("p", term.V("X"), term.V("Y"))},
		Cond: []Comparison{{Op: "!=", L: term.V("X"), R: term.V("Y")}},
		Head: []term.Atom{term.NewAtom("q", term.V("X"))},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	in := mkInst(map[string][]relation.Tuple{"p": {{"a", "a"}, {"b", "c"}}})
	vs, err := d.Violations(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Subst.Lookup(term.V("X")).Name != "b" {
		t.Fatalf("violations = %v", vs)
	}
}

func TestValidate(t *testing.T) {
	bad := []*Dependency{
		{Name: "emptybody"},
		{ // head var not in body or exvars
			Name: "unsafehead",
			Body: []term.Atom{term.NewAtom("p", term.V("X"))},
			Head: []term.Atom{term.NewAtom("q", term.V("Y"))},
		},
		{ // existential var also in body
			Name:   "exinbody",
			Body:   []term.Atom{term.NewAtom("p", term.V("X"))},
			ExVars: []string{"X"},
			Head:   []term.Atom{term.NewAtom("q", term.V("X"))},
		},
		{ // condition var not in body
			Name: "condvar",
			Body: []term.Atom{term.NewAtom("p", term.V("X"))},
			Cond: []Comparison{{Op: "=", L: term.V("Z"), R: term.V("X")}},
			Head: []term.Atom{term.NewAtom("q", term.V("X"))},
		},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("Validate(%s) should fail", d.Name)
		}
	}
}

func TestFirstViolationDeterministic(t *testing.T) {
	d1 := Inclusion("first", "r2", "r1", 2)
	d2 := KeyEGD("second", "r1", "r3")
	in := example1()
	v1, err := FirstViolation(in, []*Dependency{d1, d2})
	if err != nil || v1 == nil {
		t.Fatalf("FirstViolation: %v %v", v1, err)
	}
	if v1.Dep.Name != "first" {
		t.Fatalf("dependency order not respected: %v", v1)
	}
	v2, err := FirstViolation(in, []*Dependency{d1, d2})
	if err != nil {
		t.Fatal(err)
	}
	if v1.String() != v2.String() {
		t.Fatalf("FirstViolation not deterministic: %v vs %v", v1, v2)
	}
	if !strings.Contains(v1.String(), "violated at") {
		t.Fatalf("violation rendering: %q", v1)
	}
}

func TestAllSatisfied(t *testing.T) {
	in := example1()
	deps := []*Dependency{Inclusion("i", "r2", "r1", 2), KeyEGD("k", "r1", "r3")}
	v, err := FirstViolation(in, deps)
	if err != nil || v == nil {
		t.Fatalf("FirstViolation = %v %v, want a violation", v, err)
	}
	empty := relation.NewInstance()
	v, err = FirstViolation(empty, deps)
	if err != nil || v != nil {
		t.Fatalf("empty instance must satisfy: %v %v", v, err)
	}
}

func TestStringRendering(t *testing.T) {
	d := Referential("dec3", "r1", "s1", "r2", "s2")
	s := d.String()
	if !strings.Contains(s, "exists W") || !strings.Contains(s, "r2(X,W)") {
		t.Fatalf("String = %q", s)
	}
	k := KeyEGD("k", "r1", "r3").String()
	if !strings.Contains(k, "Y = Z") {
		t.Fatalf("EGD String = %q", k)
	}
	den := (&Dependency{Name: "d", Body: []term.Atom{term.NewAtom("p", term.V("X"))}}).String()
	if !strings.Contains(den, "false") {
		t.Fatalf("denial String = %q", den)
	}
}

func TestMultiAtomExistentialHead(t *testing.T) {
	// Head with two atoms sharing the existential variable must be
	// witnessed simultaneously (as in DEC (3)).
	d := Referential("dec3", "r1", "s1", "r2", "s2")
	in := mkInst(map[string][]relation.Tuple{
		"r1": {{"a", "b"}},
		"s1": {{"c", "b"}},
		"r2": {{"a", "e"}}, // witness e in R2 …
		"s2": {{"c", "f"}}, // … but S2 only has f: no common witness
	})
	ok, err := d.Satisfied(in)
	if err != nil || ok {
		t.Fatalf("mismatched witnesses must violate: %v %v", ok, err)
	}
	in.Insert("s2", relation.Tuple{"c", "e"})
	ok, err = d.Satisfied(in)
	if err != nil || !ok {
		t.Fatalf("common witness e must satisfy: %v %v", ok, err)
	}
}
