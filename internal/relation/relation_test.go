package relation

import (
	"testing"
	"testing/quick"

	"repro/internal/term"
)

func inst(facts ...Fact) *Instance {
	in := NewInstance()
	for _, f := range facts {
		in.Insert(f.Rel, f.Tuple)
	}
	return in
}

func TestInsertDeleteHas(t *testing.T) {
	in := NewInstance()
	if !in.Insert("r", Tuple{"a", "b"}) {
		t.Fatal("first insert should report true")
	}
	if in.Insert("r", Tuple{"a", "b"}) {
		t.Fatal("duplicate insert should report false")
	}
	if !in.Has("r", Tuple{"a", "b"}) {
		t.Fatal("inserted tuple missing")
	}
	if in.Has("r", Tuple{"a", "c"}) {
		t.Fatal("absent tuple reported present")
	}
	if !in.Delete("r", Tuple{"a", "b"}) {
		t.Fatal("delete of present tuple failed")
	}
	if in.Delete("r", Tuple{"a", "b"}) {
		t.Fatal("delete of absent tuple reported true")
	}
	if in.Size() != 0 {
		t.Fatalf("size = %d", in.Size())
	}
}

func TestInsertIsolation(t *testing.T) {
	// Mutating the caller's tuple after insert must not affect storage.
	in := NewInstance()
	tu := Tuple{"a", "b"}
	in.Insert("r", tu)
	tu[0] = "z"
	if !in.Has("r", Tuple{"a", "b"}) {
		t.Fatal("stored tuple was aliased to caller slice")
	}
}

func TestAtomBridge(t *testing.T) {
	in := NewInstance()
	in.InsertAtom(term.NewAtom("r", term.C("a"), term.C("b")))
	if !in.Has("r", Tuple{"a", "b"}) {
		t.Fatal("InsertAtom failed")
	}
	if !in.HasAtom(term.NewAtom("r", term.C("a"), term.C("b"))) {
		t.Fatal("HasAtom failed")
	}
	if in.HasAtom(term.NewAtom("r", term.V("X"), term.C("b"))) {
		t.Fatal("HasAtom on non-ground atom should be false")
	}
	atoms := in.Atoms()
	if len(atoms) != 1 || atoms[0].String() != "r(a,b)" {
		t.Fatalf("Atoms = %v", atoms)
	}
}

func TestCloneIndependence(t *testing.T) {
	in := inst(Fact{"r", Tuple{"a"}})
	c := in.Clone()
	c.Insert("r", Tuple{"b"})
	c.Delete("r", Tuple{"a"})
	if !in.Has("r", Tuple{"a"}) || in.Has("r", Tuple{"b"}) {
		t.Fatal("clone shares state with original")
	}
}

func TestUnionRestrict(t *testing.T) {
	a := inst(Fact{"r1", Tuple{"a"}}, Fact{"r2", Tuple{"b"}})
	b := inst(Fact{"r2", Tuple{"b"}}, Fact{"r3", Tuple{"c"}})
	u := a.Union(b)
	if u.Size() != 3 {
		t.Fatalf("union size = %d", u.Size())
	}
	s := NewSchema(RelDecl{"r1", 1}, RelDecl{"r3", 1})
	r := u.Restrict(s)
	if r.Size() != 2 || !r.Has("r1", Tuple{"a"}) || !r.Has("r3", Tuple{"c"}) {
		t.Fatalf("restrict = %s", r)
	}
	rr := u.RestrictRels(map[string]bool{"r2": true})
	if rr.Size() != 1 || !rr.Has("r2", Tuple{"b"}) {
		t.Fatalf("RestrictRels = %s", rr)
	}
}

func TestEqualAndKey(t *testing.T) {
	a := inst(Fact{"r", Tuple{"a"}}, Fact{"s", Tuple{"b", "c"}})
	b := inst(Fact{"s", Tuple{"b", "c"}}, Fact{"r", Tuple{"a"}})
	if !a.Equal(b) {
		t.Fatal("order-insensitive equality failed")
	}
	if a.Key() != b.Key() {
		t.Fatal("canonical keys differ for equal instances")
	}
	b.Insert("r", Tuple{"z"})
	if a.Equal(b) || a.Key() == b.Key() {
		t.Fatal("unequal instances compared equal")
	}
}

func TestSymDiffExample1Distance(t *testing.T) {
	// Δ on the shape of the paper's Example 1 stage-one repair:
	// r1 adds R1(c,d) and R1(a,e) to r.
	r := inst(Fact{"r1", Tuple{"a", "b"}}, Fact{"r1", Tuple{"s", "t"}})
	r1 := r.Clone()
	r1.Insert("r1", Tuple{"c", "d"})
	r1.Insert("r1", Tuple{"a", "e"})
	d := SymDiff(r, r1)
	if len(d) != 2 {
		t.Fatalf("delta = %v", d)
	}
	keys := deltaKeySet(d)
	if !keys[Fact{"r1", Tuple{"a", "e"}}.Key()] || !keys[Fact{"r1", Tuple{"c", "d"}}.Key()] {
		t.Fatalf("delta keys = %v", keys)
	}
}

func TestSymDiffSymmetric(t *testing.T) {
	a := inst(Fact{"r", Tuple{"a"}}, Fact{"r", Tuple{"b"}})
	b := inst(Fact{"r", Tuple{"b"}}, Fact{"r", Tuple{"c"}})
	d1 := SymDiff(a, b)
	d2 := SymDiff(b, a)
	if len(d1) != 2 || len(d2) != 2 {
		t.Fatalf("d1=%v d2=%v", d1, d2)
	}
	if !SubsetOf(deltaKeySet(d1), deltaKeySet(d2)) || !SubsetOf(deltaKeySet(d2), deltaKeySet(d1)) {
		t.Fatal("symmetric difference not symmetric")
	}
}

// deltaKeySet converts a delta into a set of fact keys, for SubsetOf.
func deltaKeySet(delta []Fact) map[string]bool {
	s := make(map[string]bool, len(delta))
	for _, f := range delta {
		s[f.Key()] = true
	}
	return s
}

func TestSubsetOf(t *testing.T) {
	a := map[string]bool{"x": true}
	b := map[string]bool{"x": true, "y": true}
	if !SubsetOf(a, b) || SubsetOf(b, a) {
		t.Fatal("SubsetOf wrong")
	}
	if !SubsetOf(map[string]bool{}, a) {
		t.Fatal("empty set must be subset")
	}
}

func TestActiveDomain(t *testing.T) {
	in := inst(Fact{"r", Tuple{"b", "a"}}, Fact{"s", Tuple{"c"}})
	ad := in.ActiveDomain()
	if len(ad) != 3 || ad[0] != "a" || ad[1] != "b" || ad[2] != "c" {
		t.Fatalf("ActiveDomain = %v", ad)
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema(RelDecl{"r1", 2}, RelDecl{"r2", 3})
	if d, ok := s.Decl("r1"); !ok || d.Arity != 2 {
		t.Fatalf("Decl(r1) = %v %v", d, ok)
	}
	if s.Has("zzz") {
		t.Fatal("Has on undeclared relation")
	}
	t2 := NewSchema(RelDecl{"r3", 1})
	u := s.Union(t2)
	if len(u.Relations()) != 3 {
		t.Fatalf("union relations = %v", u.Relations())
	}
	// Union must not mutate operands.
	if s.Has("r3") {
		t.Fatal("Union mutated receiver")
	}
}

func TestTuplesDeterministicOrder(t *testing.T) {
	in := inst(Fact{"r", Tuple{"b"}}, Fact{"r", Tuple{"a"}}, Fact{"r", Tuple{"c"}})
	ts := in.Tuples("r")
	if len(ts) != 3 || ts[0][0] != "a" || ts[1][0] != "b" || ts[2][0] != "c" {
		t.Fatalf("Tuples = %v", ts)
	}
}

// Property: Δ(r, r) is empty and Δ respects insert/delete counts.
func TestSymDiffProperty(t *testing.T) {
	f := func(adds []uint8) bool {
		a := NewInstance()
		for _, x := range adds {
			a.Insert("r", Tuple{string(rune('a' + int(x)%10))})
		}
		if len(SymDiff(a, a)) != 0 {
			return false
		}
		b := a.Clone()
		b.Insert("r", Tuple{"zz"})
		return len(SymDiff(a, b)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	in := inst(Fact{"r", Tuple{"a", "b"}})
	if got := in.String(); got != "{r(a,b)}" {
		t.Fatalf("String = %q", got)
	}
	if got := (Fact{"r", Tuple{"a"}}).String(); got != "r(a)" {
		t.Fatalf("Fact.String = %q", got)
	}
}

func TestParseFactIDKeyRoundTrip(t *testing.T) {
	for _, f := range []Fact{
		{Rel: "r1", Tuple: Tuple{"a", "b"}},
		{Rel: "r", Tuple: Tuple{"x"}},
		{Rel: "wide", Tuple: Tuple{"1", "2", "3", "4"}},
		{Rel: "p", Tuple: Tuple{}},
		// The arity prefix disambiguates the cases Fact.Key cannot:
		// empty-string constants vs lower arities.
		{Rel: "p", Tuple: Tuple{""}},
		{Rel: "p", Tuple: Tuple{"", ""}},
		{Rel: "p", Tuple: Tuple{"a,b", "c"}},
	} {
		got := ParseFactIDKey(f.IDKey())
		if got.Rel != f.Rel || !got.Tuple.Equal(f.Tuple) {
			t.Fatalf("round-trip of %#v gave %#v", f, got)
		}
	}
}

func TestRelGenAdvancesOnMutation(t *testing.T) {
	in := NewInstance()
	if in.RelGen("r") != 0 {
		t.Fatal("unknown relation must report generation 0")
	}
	in.Insert("r", Tuple{"a"})
	g1 := in.RelGen("r")
	if g1 == 0 {
		t.Fatal("stored relation must report a nonzero generation")
	}
	in.Insert("r", Tuple{"a"}) // duplicate: no mutation
	if in.RelGen("r") != g1 {
		t.Fatal("duplicate insert must not advance the generation")
	}
	in.Delete("r", Tuple{"missing"}) // absent: no mutation
	if in.RelGen("r") != g1 {
		t.Fatal("no-op delete must not advance the generation")
	}
	in.Delete("r", Tuple{"a"})
	if in.RelGen("r") == g1 {
		t.Fatal("delete must advance the generation")
	}
}
