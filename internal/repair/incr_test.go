package repair

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/constraint"
	"repro/internal/foquery"
	"repro/internal/relation"
	"repro/internal/term"
)

// scatteredMultiRelInstance builds k independent FD conflicts, each on
// its own relation r0..r{k-1}, plus clean facts per relation — the
// shape whose components are pairwise predicate-disjoint (so a query
// over one relation observes exactly one component).
func scatteredMultiRelInstance(k, clean int) (*relation.Instance, []*constraint.Dependency) {
	in := relation.NewInstance()
	deps := make([]*constraint.Dependency, 0, k)
	for i := 0; i < k; i++ {
		rel := fmt.Sprintf("r%d", i)
		deps = append(deps, constraint.FD(fmt.Sprintf("fd%d", i), rel))
		for j := 0; j < clean; j++ {
			in.Insert(rel, relation.Tuple{fmt.Sprintf("k%d_%d", i, j), "v"})
		}
		in.Insert(rel, relation.Tuple{fmt.Sprintf("c%d", i), "u"})
		in.Insert(rel, relation.Tuple{fmt.Sprintf("c%d", i), "w"})
	}
	return in, deps
}

func mustParse(t *testing.T, q string) foquery.Formula {
	t.Helper()
	f, err := foquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// requireIncrMatchesFull asserts the incremental answer equals the
// full ConsistentAnswers recompute, byte for byte.
func requireIncrMatchesFull(t *testing.T, st *IncrState, inst *relation.Instance, changed []string, deps []*constraint.Dependency, q foquery.Formula, vars []string, opt Options) {
	t.Helper()
	got, noRepairs, ok, err := st.Answers(inst, changed, q, vars, opt)
	if !ok {
		t.Fatalf("incremental path fell back (changed=%v)", changed)
	}
	if err != nil {
		t.Fatal(err)
	}
	if noRepairs {
		t.Fatalf("unexpected noRepairs outcome (changed=%v)", changed)
	}
	want, werr := ConsistentAnswers(inst.Clone(), deps, q, vars, opt)
	if werr != nil {
		t.Fatal(werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental answers diverge (changed=%v):\nincr %v\nfull %v", changed, got, want)
	}
}

func TestIncrAnswersMatchesFullAcrossDeltas(t *testing.T) {
	const k = 4
	inst, deps := scatteredMultiRelInstance(k, 3)
	st, ok := NewIncrState(deps, map[string]bool{})
	if !ok {
		t.Fatal("NewIncrState refused an FD problem")
	}
	q := mustParse(t, "r0(X,Y)")
	vars := []string{"X", "Y"}
	opt := Options{}

	// Cold call seeds every component.
	requireIncrMatchesFull(t, st, inst, nil, deps, q, vars, opt)
	if got := len(st.cache); got != k {
		t.Fatalf("cached components = %d, want %d", got, k)
	}

	// Delta 1: fresh clean fact in an untouched relation — only r2's
	// component is re-searched, the rest are reused.
	inst.Insert("r2", relation.Tuple{"fresh0", "v"})
	requireIncrMatchesFull(t, st, inst, []string{"r2"}, deps, q, vars, opt)

	// Delta 2: a write that creates a brand-new conflict in r3.
	inst.Insert("r3", relation.Tuple{"c3", "x"})
	requireIncrMatchesFull(t, st, inst, []string{"r3"}, deps, q, vars, opt)

	// Delta 3: resolve r1's conflict by deleting one side.
	inst.Delete("r1", relation.Tuple{"c1", "w"})
	requireIncrMatchesFull(t, st, inst, []string{"r1"}, deps, q, vars, opt)

	// Delta 4: a write into the queried relation itself.
	inst.Insert("r0", relation.Tuple{"freshq", "v"})
	requireIncrMatchesFull(t, st, inst, []string{"r0"}, deps, q, vars, opt)

	// Delta 5: empty delta — everything served from the component cache.
	requireIncrMatchesFull(t, st, inst, nil, deps, q, vars, opt)
}

func TestIncrConsistentInstance(t *testing.T) {
	inst, deps := scatteredMultiRelInstance(2, 2)
	// Resolve both conflicts up front: zero violations, the instance is
	// its own unique repair.
	inst.Delete("r0", relation.Tuple{"c0", "w"})
	inst.Delete("r1", relation.Tuple{"c1", "w"})
	st, _ := NewIncrState(deps, map[string]bool{})
	q := mustParse(t, "r0(X,Y)")
	vars := []string{"X", "Y"}

	got, noRepairs, ok, err := st.Answers(inst, nil, q, vars, Options{})
	if !ok || err != nil || noRepairs {
		t.Fatalf("consistent instance: ok=%v err=%v noRepairs=%v", ok, err, noRepairs)
	}
	want, _ := ConsistentAnswers(inst.Clone(), deps, q, vars, Options{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("answers diverge:\nincr %v\nfull %v", got, want)
	}
}

func TestIncrNoRepairsOutcome(t *testing.T) {
	// A violated EGD whose relations are all fixed admits no repair.
	in := relation.NewInstance()
	in.Insert("a", relation.Tuple{"k", "u"})
	in.Insert("b", relation.Tuple{"k", "v"})
	deps := []*constraint.Dependency{constraint.KeyEGD("egd", "a", "b")}
	st, ok := NewIncrState(deps, map[string]bool{"a": true, "b": true})
	if !ok {
		t.Fatal("NewIncrState refused")
	}
	q := mustParse(t, "a(X,Y)")
	_, noRepairs, ok, err := st.Answers(in, nil, q, []string{"X", "Y"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !noRepairs {
		t.Fatalf("want noRepairs=true ok=true, got noRepairs=%v ok=%v", noRepairs, ok)
	}
}

func TestIncrFallbackGates(t *testing.T) {
	inst, deps := scatteredMultiRelInstance(3, 2)
	vars := []string{"X", "Y"}
	single := mustParse(t, "r0(X,Y)")

	gates := []struct {
		name string
		q    foquery.Formula
		opt  Options
	}{
		{"no-localize", single, Options{NoLocalize: true}},
		{"max-repairs", single, Options{MaxRepairs: 5}},
		{"non-domain-free", mustParse(t, "r0(X,Y) & !r1(X,Y)"), Options{}},
		{"query-spans-two-components", mustParse(t, "r0(X,Y) | r1(X,Y)"), Options{}},
		{"max-delta-sum", single, Options{MaxDelta: 2}},
	}
	for _, g := range gates {
		st, ok := NewIncrState(deps, map[string]bool{})
		if !ok {
			t.Fatal("NewIncrState refused")
		}
		if _, _, ok, _ := st.Answers(inst, nil, g.q, vars, g.opt); ok {
			t.Fatalf("%s: gate did not force a fallback", g.name)
		}
		// The state must stay usable: a subsequent plain call succeeds
		// and matches the full recompute.
		requireIncrMatchesFull(t, st, inst, nil, deps, single, vars, Options{})
	}
}

func TestIncrStateRejectsBadShapes(t *testing.T) {
	d := constraint.FD("fd", "r0")
	if _, ok := NewIncrState([]*constraint.Dependency{d, d}, nil); ok {
		t.Fatal("duplicate dependency pointers must be rejected")
	}
}

// TestNewIncrStateRefusals pins the constructor's gates: duplicate
// dependency entries, invalid dependencies, and domain-dependent
// existential TGDs are refused; fixing the existential head makes the
// same dependency acceptable.
func TestNewIncrStateRefusals(t *testing.T) {
	fd := constraint.FD("fd", "r0")
	if _, ok := NewIncrState([]*constraint.Dependency{fd, fd}, map[string]bool{}); ok {
		t.Fatal("duplicate dependency entry accepted")
	}
	bad := &constraint.Dependency{Name: "bad"}
	if _, ok := NewIncrState([]*constraint.Dependency{bad}, map[string]bool{}); ok {
		t.Fatal("invalid (empty-body) dependency accepted")
	}
	ref := &constraint.Dependency{
		Name:   "ref",
		Body:   []term.Atom{term.NewAtom("r0", term.V("X"), term.V("Y"))},
		Head:   []term.Atom{term.NewAtom("s0", term.V("X"), term.V("W"))},
		ExVars: []string{"W"},
	}
	if _, ok := NewIncrState([]*constraint.Dependency{ref}, map[string]bool{}); ok {
		t.Fatal("domain-dependent existential TGD accepted")
	}
	if _, ok := NewIncrState([]*constraint.Dependency{ref}, map[string]bool{"s0": true}); !ok {
		t.Fatal("existential TGD with fixed head refused")
	}
}

// TestDomainFreeQuery pins the exported fragment test: atoms under
// conjunction and disjunction qualify; negation and quantifiers do not.
func TestDomainFreeQuery(t *testing.T) {
	for _, c := range []struct {
		q    string
		want bool
	}{
		{"r0(X,Y)", true},
		{"r0(X,Y) & r1(X,Y)", true},
		{"r0(X,Y) | r1(X,Y)", true},
		{"!r0(X,Y)", false},
		{"exists Y (r0(X,Y))", false},
		{"r0(X,Y) & !r1(X,Y)", false},
	} {
		if got := DomainFreeQuery(mustParse(t, c.q)); got != c.want {
			t.Errorf("DomainFreeQuery(%q) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestIncrStateResetRecovers: reset drops all dynamic state (the error
// recovery path), and the next Answers call rebuilds from scratch with
// answers still matching the full recompute.
func TestIncrStateResetRecovers(t *testing.T) {
	inst, deps := scatteredMultiRelInstance(3, 2)
	st, ok := NewIncrState(deps, map[string]bool{})
	if !ok {
		t.Fatal("NewIncrState refused an FD problem")
	}
	q := mustParse(t, "r1(X,Y)")
	vars := []string{"X", "Y"}
	requireIncrMatchesFull(t, st, inst, nil, deps, q, vars, Options{})
	if len(st.cache) == 0 {
		t.Fatal("no components cached after a seeded answer")
	}
	st.reset()
	if len(st.cache) != 0 {
		t.Fatalf("reset left %d cached components", len(st.cache))
	}
	requireIncrMatchesFull(t, st, inst, nil, deps, q, vars, Options{})
	if len(st.cache) == 0 {
		t.Fatal("no components re-cached after reset")
	}
}
