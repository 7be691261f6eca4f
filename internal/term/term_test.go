package term

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	c := C("a")
	if c.IsVar || c.Name != "a" {
		t.Fatalf("C(a) = %+v", c)
	}
	v := V("X")
	if !v.IsVar || v.Name != "X" {
		t.Fatalf("V(X) = %+v", v)
	}
	if c.Equal(v) {
		t.Fatal("constant a should not equal variable X")
	}
	if !c.Equal(C("a")) {
		t.Fatal("constant a should equal constant a")
	}
	// A variable and a constant with the same name are distinct.
	if C("X").Equal(V("X")) {
		t.Fatal("C(X) must differ from V(X)")
	}
}

func TestAtomString(t *testing.T) {
	a := NewAtom("r1", C("a"), V("X"))
	if got := a.String(); got != "r1(a,X)" {
		t.Fatalf("String = %q", got)
	}
	p := NewAtom("p")
	if got := p.String(); got != "p" {
		t.Fatalf("nullary String = %q", got)
	}
}

func TestAtomGroundAndKey(t *testing.T) {
	g := NewAtom("r", C("a"), C("b"))
	if !g.IsGround() {
		t.Fatal("ground atom reported non-ground")
	}
	if g.Key() != "r(a,b)" {
		t.Fatalf("Key = %q", g.Key())
	}
	ng := NewAtom("r", C("a"), V("X"))
	if ng.IsGround() {
		t.Fatal("non-ground atom reported ground")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Key on non-ground atom should panic")
		}
	}()
	_ = ng.Key()
}

func TestAtomVars(t *testing.T) {
	a := NewAtom("r", V("X"), C("a"), V("Y"), V("X"))
	vs := a.Vars(nil)
	if len(vs) != 2 || vs[0] != "X" || vs[1] != "Y" {
		t.Fatalf("Vars = %v", vs)
	}
}

func TestMatchBasic(t *testing.T) {
	s := NewSubst()
	pat := NewAtom("r", V("X"), V("Y"))
	fact := NewAtom("r", C("a"), C("b"))
	if !Match(pat, fact, s) {
		t.Fatal("match failed")
	}
	if s.Lookup(V("X")).Name != "a" || s.Lookup(V("Y")).Name != "b" {
		t.Fatalf("bindings = %v", s)
	}
}

func TestMatchRepeatedVar(t *testing.T) {
	pat := NewAtom("r", V("X"), V("X"))
	if Match(pat, NewAtom("r", C("a"), C("b")), NewSubst()) {
		t.Fatal("r(X,X) should not match r(a,b)")
	}
	if !Match(pat, NewAtom("r", C("a"), C("a")), NewSubst()) {
		t.Fatal("r(X,X) should match r(a,a)")
	}
}

func TestMatchConstMismatch(t *testing.T) {
	pat := NewAtom("r", C("a"), V("Y"))
	if Match(pat, NewAtom("r", C("b"), C("c")), NewSubst()) {
		t.Fatal("r(a,Y) should not match r(b,c)")
	}
	if Match(pat, NewAtom("q", C("a"), C("c")), NewSubst()) {
		t.Fatal("predicate mismatch must fail")
	}
	if Match(pat, NewAtom("r", C("a")), NewSubst()) {
		t.Fatal("arity mismatch must fail")
	}
}

func TestMatchRespectsExistingBindings(t *testing.T) {
	s := NewSubst()
	s["X"] = C("a")
	if Match(NewAtom("r", V("X")), NewAtom("r", C("b")), s) {
		t.Fatal("bound X=a should not match b")
	}
	s2 := NewSubst()
	s2["X"] = C("a")
	if !Match(NewAtom("r", V("X")), NewAtom("r", C("a")), s2) {
		t.Fatal("bound X=a should match a")
	}
}

func TestUnify(t *testing.T) {
	s := NewSubst()
	a := NewAtom("r", V("X"), C("b"))
	b := NewAtom("r", C("a"), V("Y"))
	if !unify(a, b, s) {
		t.Fatal("unify failed")
	}
	if s.Lookup(V("X")).Name != "a" || s.Lookup(V("Y")).Name != "b" {
		t.Fatalf("bindings = %v", s)
	}
	// Variable-variable chains.
	s2 := NewSubst()
	if !unify(NewAtom("r", V("X")), NewAtom("r", V("Y")), s2) {
		t.Fatal("var-var unify failed")
	}
	if !unify(NewAtom("r", V("Y")), NewAtom("r", C("c")), s2) {
		t.Fatal("chained unify failed")
	}
	if s2.Lookup(V("X")).Name != "c" {
		t.Fatalf("X should resolve to c, got %v", s2.Lookup(V("X")))
	}
}

func TestSubstApply(t *testing.T) {
	s := NewSubst()
	s["X"] = C("a")
	a := s.Apply(NewAtom("r", V("X"), V("Y")))
	if a.String() != "r(a,Y)" {
		t.Fatalf("Apply = %s", a)
	}
}

func TestSubstBindConflict(t *testing.T) {
	s := NewSubst()
	if !s.Bind("X", C("a")) {
		t.Fatal("first bind failed")
	}
	if s.Bind("X", C("b")) {
		t.Fatal("conflicting bind should fail")
	}
	if !s.Bind("X", C("a")) {
		t.Fatal("identical rebind should succeed")
	}
}

func TestRenameApart(t *testing.T) {
	a := NewAtom("r", V("X"), C("a"))
	r := renameApart(a, "_1")
	if r.String() != "r(X_1,a)" {
		t.Fatalf("RenameApart = %s", r)
	}
	if a.String() != "r(X,a)" {
		t.Fatal("RenameApart mutated input")
	}
}

func TestConstsIn(t *testing.T) {
	a := NewAtom("r", C("a"), V("X"), C("b"), C("a"))
	cs := constsIn(a, nil)
	if len(cs) != 2 || cs[0] != "a" || cs[1] != "b" {
		t.Fatalf("ConstsIn = %v", cs)
	}
}

// Property: matching a pattern against a fact produced by applying a
// ground substitution to the pattern always succeeds and reproduces the
// bindings for the pattern's variables.
func TestMatchRoundTrip(t *testing.T) {
	f := func(a, b uint8) bool {
		ca, cb := C(constName(a)), C(constName(b))
		pat := NewAtom("r", V("X"), V("Y"), V("X"))
		s := Subst{"X": ca, "Y": cb}
		fact := s.Apply(pat)
		got := NewSubst()
		if !Match(pat, fact, got) {
			return false
		}
		return got.Lookup(V("X")).Equal(ca) && got.Lookup(V("Y")).Equal(cb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func constName(b uint8) string { return string(rune('a' + int(b)%26)) }

func TestSortAtomsDeterministic(t *testing.T) {
	atoms := []Atom{NewAtom("b", C("x")), NewAtom("a", C("y")), NewAtom("a", C("x"))}
	sortAtoms(atoms)
	if atoms[0].String() != "a(x)" || atoms[1].String() != "a(y)" || atoms[2].String() != "b(x)" {
		t.Fatalf("sorted = %v", atoms)
	}
}

// unify extends s so that a and b become equal, binding variables on
// either side. It reports success; on failure s may be partially
// extended.
func unify(a, b Atom, s Subst) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		x := s.Lookup(a.Args[i])
		y := s.Lookup(b.Args[i])
		switch {
		case x.Equal(y):
		case x.IsVar:
			s[x.Name] = y
		case y.IsVar:
			s[y.Name] = x
		default:
			return false
		}
	}
	return true
}

// renameApart returns a copy of the atom with every variable renamed by
// appending the given suffix; used to keep rule variables disjoint.
func renameApart(a Atom, suffix string) Atom {
	out := Atom{Pred: a.Pred, Args: make([]Term, len(a.Args))}
	for i, t := range a.Args {
		if t.IsVar {
			out.Args[i] = V(t.Name + suffix)
		} else {
			out.Args[i] = t
		}
	}
	return out
}

// sortAtoms sorts atoms by their string rendering, for deterministic
// output.
func sortAtoms(atoms []Atom) {
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].String() < atoms[j].String() })
}

// constsIn appends all constant names occurring in the atom to dst,
// without duplicates relative to dst.
func constsIn(a Atom, dst []string) []string {
	for _, t := range a.Args {
		if !t.IsVar && !containsStr(dst, t.Name) {
			dst = append(dst, t.Name)
		}
	}
	return dst
}
