// Package constraint represents and checks the constraints of the
// paper: data exchange constraints (DECs, Definition 2(e)) and local
// integrity constraints IC(P) (Definition 2(d)). A constraint is a
// universally quantified implication
//
//	∀x̄ ( B1 ∧ ... ∧ Bn ∧ cond → ∃ȳ ( H1 ∧ ... ∧ Hm ∧ eq ) )
//
// which covers the paper's referential exchange constraints (formula
// (2) and (3)), full inclusion dependencies (Example 1's Σ(P1,P2)),
// equality-generating constraints (Example 1's Σ(P1,P3)), functional
// dependencies and denial constraints.
package constraint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relation"
	"repro/internal/term"
)

// Comparison is a built-in condition between two terms.
type Comparison struct {
	Op   string // "=", "!=", "<", "<=", ">", ">="
	L, R term.Term
}

// String renders the comparison.
func (c Comparison) String() string { return c.L.String() + " " + c.Op + " " + c.R.String() }

// Eval evaluates the comparison under a substitution; both sides must
// be ground after substitution.
func (c Comparison) Eval(s term.Subst) (bool, error) {
	l := s.ApplyTerm(c.L)
	r := s.ApplyTerm(c.R)
	if l.IsVar || r.IsVar {
		return false, fmt.Errorf("constraint: unbound variable in comparison %s", c)
	}
	switch c.Op {
	case "=":
		return l.Name == r.Name, nil
	case "!=":
		return l.Name != r.Name, nil
	case "<":
		return strings.Compare(l.Name, r.Name) < 0, nil
	case "<=":
		return strings.Compare(l.Name, r.Name) <= 0, nil
	case ">":
		return strings.Compare(l.Name, r.Name) > 0, nil
	case ">=":
		return strings.Compare(l.Name, r.Name) >= 0, nil
	}
	return false, fmt.Errorf("constraint: unknown operator %q", c.Op)
}

// Dependency is a universally quantified implication constraint.
type Dependency struct {
	// Name identifies the constraint in diagnostics, e.g. "sigma(P1,P2)".
	Name string
	// Body is the conjunction of atoms on the left of the implication.
	Body []term.Atom
	// Cond are built-in conditions on body variables.
	Cond []Comparison
	// ExVars are the existentially quantified head variables ȳ.
	ExVars []string
	// Head is the conjunction of atoms on the right; empty for denial
	// and equality-generating constraints.
	Head []term.Atom
	// HeadEq are equality (or comparison) conclusions; for an EGD such
	// as Example 1's Σ(P1,P3), Head is empty and HeadEq is {y = z}.
	HeadEq []Comparison
}

// IsDenial reports whether the dependency is a denial constraint
// (empty head: the body must never match).
func (d *Dependency) IsDenial() bool { return len(d.Head) == 0 && len(d.HeadEq) == 0 }

// IsEGD reports whether the dependency is equality-generating.
func (d *Dependency) IsEGD() bool { return len(d.Head) == 0 && len(d.HeadEq) > 0 }

// IsTGD reports whether the dependency has head atoms.
func (d *Dependency) IsTGD() bool { return len(d.Head) > 0 }

// IsFullTGD reports whether the dependency is tuple-generating with no
// existential variables (e.g. a full inclusion dependency).
func (d *Dependency) IsFullTGD() bool { return d.IsTGD() && len(d.ExVars) == 0 }

// Preds returns the set of predicate names mentioned by the dependency.
func (d *Dependency) Preds() map[string]bool {
	out := make(map[string]bool)
	for _, a := range d.Body {
		out[a.Pred] = true
	}
	for _, a := range d.Head {
		out[a.Pred] = true
	}
	return out
}

// String renders the dependency as Body, cond -> exists ȳ: Head, eq.
func (d *Dependency) String() string {
	var b strings.Builder
	for i, a := range d.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	for _, c := range d.Cond {
		b.WriteString(", ")
		b.WriteString(c.String())
	}
	b.WriteString(" -> ")
	if len(d.ExVars) > 0 {
		b.WriteString("exists ")
		b.WriteString(strings.Join(d.ExVars, ","))
		b.WriteString(": ")
	}
	if d.IsDenial() {
		b.WriteString("false")
		return b.String()
	}
	first := true
	for _, a := range d.Head {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(a.String())
	}
	for _, c := range d.HeadEq {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(c.String())
	}
	return b.String()
}

// Validate checks the dependency is well-formed: safety (head and
// condition variables occur in the body or in ExVars), existential
// variables do not occur in the body, and bodies are non-empty.
func (d *Dependency) Validate() error {
	if len(d.Body) == 0 {
		return fmt.Errorf("constraint %s: empty body", d.Name)
	}
	bodyVars := map[string]bool{}
	for _, a := range d.Body {
		for _, v := range a.Vars(nil) {
			bodyVars[v] = true
		}
	}
	ex := map[string]bool{}
	for _, v := range d.ExVars {
		if bodyVars[v] {
			return fmt.Errorf("constraint %s: existential variable %s occurs in body", d.Name, v)
		}
		ex[v] = true
	}
	checkTerm := func(t term.Term, where string) error {
		if t.IsVar && !bodyVars[t.Name] && !ex[t.Name] {
			return fmt.Errorf("constraint %s: unsafe variable %s in %s", d.Name, t.Name, where)
		}
		return nil
	}
	for _, c := range d.Cond {
		if c.L.IsVar && !bodyVars[c.L.Name] {
			return fmt.Errorf("constraint %s: condition variable %s not in body", d.Name, c.L.Name)
		}
		if c.R.IsVar && !bodyVars[c.R.Name] {
			return fmt.Errorf("constraint %s: condition variable %s not in body", d.Name, c.R.Name)
		}
	}
	for _, a := range d.Head {
		for _, t := range a.Args {
			if err := checkTerm(t, "head atom "+a.String()); err != nil {
				return err
			}
		}
	}
	for _, c := range d.HeadEq {
		if err := checkTerm(c.L, "head equality"); err != nil {
			return err
		}
		if err := checkTerm(c.R, "head equality"); err != nil {
			return err
		}
	}
	return nil
}

// Violation is a body match of a dependency for which no head witness
// exists in the instance.
type Violation struct {
	Dep   *Dependency
	Subst term.Subst // bindings for the body variables
}

// String renders the violation.
func (v Violation) String() string {
	var atoms []string
	for _, a := range v.Dep.Body {
		atoms = append(atoms, v.Subst.Apply(a).String())
	}
	return v.Dep.Name + " violated at " + strings.Join(atoms, ", ")
}

// Key returns a canonical identity for the violation: the dependency
// name plus the bound body atoms, rendered with the same separator
// bytes as Fact.Key (never the comma-joined Atom.String, whose
// rendering can collide when constants contain commas). Two violations
// of the same dependency list have equal keys exactly when they are the
// same body match, so the repair engine's conflict localization can
// recognize a frozen violation of another conflict component when it
// reappears in a re-check.
func (v Violation) Key() string {
	var b strings.Builder
	b.WriteString(v.Dep.Name)
	for _, a := range v.Dep.Body {
		g := v.Subst.Apply(a)
		b.WriteByte('\x1e')
		b.WriteString(g.Pred)
		for _, t := range g.Args {
			b.WriteByte('\x1f')
			b.WriteString(t.Name)
		}
	}
	return b.String()
}

// matchBody enumerates substitutions matching all body atoms against
// the instance and satisfying the conditions. Candidate facts come from
// the instance's per-column indexes (Instance.MatchingTuples) and
// backtracking uses a binding trail instead of cloning the substitution
// per candidate; the enumeration order is identical to a full sorted
// scan, so every caller sees the seed's deterministic match order.
func matchBody(inst *relation.Instance, body []term.Atom, cond []Comparison, fn func(term.Subst) error) error {
	s := term.NewSubst()
	var trail []string
	var argsBuf []term.Term
	// Per-depth scratch: the applied pattern's argument buffer and the
	// candidate-tuple buffer both live for the whole loop at their
	// depth, so each depth owns one of each and no inner scan
	// allocates. (argsBuf is only read inside MatchTrail, so a single
	// buffer shared across depths suffices for the fact side.)
	patBufs := make([][]term.Term, len(body))
	tupBufs := make([][]relation.Tuple, len(body))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(body) {
			for _, c := range cond {
				ok, err := c.Eval(s)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			return fn(s.Clone())
		}
		pat := s.ApplyInto(body[i], patBufs[i])
		patBufs[i] = pat.Args
		for _, tup := range inst.MatchingTuplesBuf(pat, &tupBufs[i]) {
			mark := len(trail)
			argsBuf = term.ConstArgs(argsBuf[:0], tup)
			if term.MatchTrail(pat, term.Atom{Pred: pat.Pred, Args: argsBuf}, s, &trail) {
				if err := rec(i + 1); err != nil {
					return err
				}
			}
			trail = term.UnbindTrail(s, trail, mark)
		}
		return nil
	}
	return rec(0)
}

// headSatisfied checks whether a head witness exists for the body
// match σ: some extension of σ over ExVars (drawing candidate values
// from the instance's tuples for head atoms, then the active domain)
// making all head atoms present and all head equalities true.
func headSatisfied(inst *relation.Instance, d *Dependency, s term.Subst) (bool, error) {
	if d.IsDenial() {
		return false, nil // a body match is itself a violation
	}
	if len(d.ExVars) == 0 {
		for _, a := range d.Head {
			if !inst.HasAtom(s.Apply(a)) {
				return false, nil
			}
		}
		for _, c := range d.HeadEq {
			ok, err := c.Eval(s)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}
	// Existential head: search for a witness by matching head atoms
	// (which bind ExVars) against the instance.
	found := false
	err := matchHead(inst, d.Head, s.Clone(), 0, func(full term.Subst) error {
		for _, c := range d.HeadEq {
			ok, err := c.Eval(full)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		found = true
		return errStop
	})
	if err != nil && err != errStop {
		return false, err
	}
	return found, nil
}

var errStop = fmt.Errorf("constraint: stop iteration")

func matchHead(inst *relation.Instance, head []term.Atom, s term.Subst, i int, fn func(term.Subst) error) error {
	if i == len(head) {
		return fn(s)
	}
	pat := s.Apply(head[i])
	if pat.IsGround() {
		if !inst.HasAtom(pat) {
			return nil
		}
		return matchHead(inst, head, s, i+1, fn)
	}
	var trail []string
	fact := term.Atom{Pred: pat.Pred}
	for _, tup := range inst.MatchingTuples(pat) {
		mark := len(trail)
		fact.Args = term.ConstArgs(fact.Args[:0], tup)
		if term.MatchTrail(pat, fact, s, &trail) {
			if err := matchHead(inst, head, s, i+1, fn); err != nil {
				return err
			}
		}
		trail = term.UnbindTrail(s, trail, mark)
	}
	return nil
}

// BodyMatches enumerates the substitutions matching the dependency's
// body (and satisfying its conditions) against the instance, in the
// deterministic order underlying Violations. The repair engine's
// conflict-graph construction uses it to enumerate the head facts a
// full TGD derives.
func (d *Dependency) BodyMatches(inst *relation.Instance, fn func(term.Subst) error) error {
	return matchBody(inst, d.Body, d.Cond, fn)
}

// Violations returns every violation of the dependency in the instance.
func (d *Dependency) Violations(inst *relation.Instance) ([]Violation, error) {
	var out []Violation
	err := matchBody(inst, d.Body, d.Cond, func(s term.Subst) error {
		ok, err := headSatisfied(inst, d, s)
		if err != nil {
			return err
		}
		if !ok {
			out = append(out, Violation{Dep: d, Subst: s})
		}
		return nil
	})
	return out, err
}

// Satisfied reports whether the instance satisfies the dependency.
func (d *Dependency) Satisfied(inst *relation.Instance) (bool, error) {
	sat := true
	err := matchBody(inst, d.Body, d.Cond, func(s term.Subst) error {
		ok, err := headSatisfied(inst, d, s)
		if err != nil {
			return err
		}
		if !ok {
			sat = false
			return errStop
		}
		return nil
	})
	if err != nil && err != errStop {
		return false, err
	}
	return sat, nil
}

// AllViolations returns every violation of every dependency, in
// dependency order and deterministic match order within a dependency.
// It is the root pass of the conflict-localized repair engine: the
// returned violations are the nodes of the conflict graph.
func AllViolations(inst *relation.Instance, deps []*Dependency) ([]Violation, error) {
	var out []Violation
	for _, d := range deps {
		vs, err := d.Violations(inst)
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

// DepIndex is a predicate-indexed table over a fixed dependency list:
// for each predicate, the (ordered) indices of the dependencies that
// mention it in their body or head. The repair engine uses it for
// incremental violation checking — after an action it re-checks only
// the dependencies whose predicates intersect the touched facts,
// because a dependency's violation set depends only on the facts of
// the predicates it mentions.
type DepIndex struct {
	deps   []*Dependency
	byPred map[string][]int
}

// NewDepIndex builds the table. The dependency list is captured by
// reference; it must not change afterwards.
func NewDepIndex(deps []*Dependency) *DepIndex {
	ix := &DepIndex{deps: deps, byPred: make(map[string][]int)}
	for i, d := range deps {
		for pred := range d.Preds() {
			ix.byPred[pred] = append(ix.byPred[pred], i)
		}
	}
	return ix
}

// Affected returns the sorted, de-duplicated indices of the
// dependencies mentioning any of the given predicates.
func (ix *DepIndex) Affected(preds []string) []int {
	var out []int
	seen := map[int]bool{}
	for _, p := range preds {
		for _, i := range ix.byPred[p] {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	sort.Ints(out)
	return out
}

// FirstViolation returns one violation among the dependencies, or nil
// if the instance satisfies them all. Dependencies are examined in
// order and matches in deterministic instance order, so the result is
// stable for a given instance.
func FirstViolation(inst *relation.Instance, deps []*Dependency) (*Violation, error) {
	for _, d := range deps {
		var found *Violation
		err := matchBody(inst, d.Body, d.Cond, func(s term.Subst) error {
			ok, err := headSatisfied(inst, d, s)
			if err != nil {
				return err
			}
			if !ok {
				found = &Violation{Dep: d, Subst: s}
				return errStop
			}
			return nil
		})
		if err != nil && err != errStop {
			return nil, err
		}
		if found != nil {
			return found, nil
		}
	}
	return nil, nil
}

// --- convenience constructors -------------------------------------------

// Inclusion builds a full inclusion dependency ∀x̄ (from(x̄) → to(x̄)),
// e.g. Example 1's Σ(P1,P2): ∀xy (R2(x,y) → R1(x,y)).
func Inclusion(name, from, to string, arity int) *Dependency {
	vars := make([]term.Term, arity)
	for i := range vars {
		vars[i] = term.V(fmt.Sprintf("X%d", i+1))
	}
	return &Dependency{
		Name: name,
		Body: []term.Atom{{Pred: from, Args: vars}},
		Head: []term.Atom{{Pred: to, Args: vars}},
	}
}

// KeyEGD builds the binary key-style EGD of Example 1's Σ(P1,P3):
// ∀x,y,z (a(x,y) ∧ b(x,z) → y = z).
func KeyEGD(name, a, b string) *Dependency {
	return &Dependency{
		Name: name,
		Body: []term.Atom{
			term.NewAtom(a, term.V("X"), term.V("Y")),
			term.NewAtom(b, term.V("X"), term.V("Z")),
		},
		HeadEq: []Comparison{{Op: "=", L: term.V("Y"), R: term.V("Z")}},
	}
}

// FD builds a functional dependency rel: x → y for a binary relation
// (∀x,y,z (rel(x,y) ∧ rel(x,z) → y = z)), the local IC of Section 3.2.
func FD(name, rel string) *Dependency {
	return &Dependency{
		Name: name,
		Body: []term.Atom{
			term.NewAtom(rel, term.V("X"), term.V("Y")),
			term.NewAtom(rel, term.V("X"), term.V("Z")),
		},
		HeadEq: []Comparison{{Op: "=", L: term.V("Y"), R: term.V("Z")}},
	}
}

// Referential builds the paper's DEC (3):
// ∀x,y,z ∃w (R1(x,y) ∧ S1(z,y) → R2(x,w) ∧ S2(z,w)).
func Referential(name, r1, s1, r2, s2 string) *Dependency {
	return &Dependency{
		Name: name,
		Body: []term.Atom{
			term.NewAtom(r1, term.V("X"), term.V("Y")),
			term.NewAtom(s1, term.V("Z"), term.V("Y")),
		},
		ExVars: []string{"W"},
		Head: []term.Atom{
			term.NewAtom(r2, term.V("X"), term.V("W")),
			term.NewAtom(s2, term.V("Z"), term.V("W")),
		},
	}
}
