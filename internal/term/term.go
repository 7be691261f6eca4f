// Package term provides the shared symbolic layer used throughout the
// system: terms (constants and variables), atoms, substitutions,
// matching and unification. Logic programs (internal/lp), constraints
// (internal/constraint) and first-order queries (internal/foquery) are
// all built on these types.
package term

import (
	"fmt"
	"strings"

	"repro/internal/symtab"
)

// Term is either a constant or a variable. The zero value is the empty
// constant. Constants are uninterpreted symbols drawn from a shared
// domain (Definition 2(b) of the paper assumes a common domain D).
type Term struct {
	// IsVar reports whether the term is a variable.
	IsVar bool
	// Name is the symbol: a constant value or a variable name.
	Name string
}

// C returns a constant term.
func C(name string) Term { return Term{Name: name} }

// V returns a variable term.
func V(name string) Term { return Term{IsVar: true, Name: name} }

// String renders the term; variables are rendered as-is (by convention
// they are written starting with an upper-case letter or declared as
// variables by the enclosing syntax).
func (t Term) String() string { return t.Name }

// Equal reports whether two terms are identical.
func (t Term) Equal(u Term) bool { return t.IsVar == u.IsVar && t.Name == u.Name }

// Atom is a predicate applied to terms, e.g. R1(x, b).
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom builds an atom.
func NewAtom(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar {
			return false
		}
	}
	return true
}

// Vars appends the names of the variables occurring in the atom to dst,
// in order of occurrence, without duplicates relative to dst.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		if t.IsVar && !containsStr(dst, t.Name) {
			dst = append(dst, t.Name)
		}
	}
	return dst
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// String renders the atom as pred(a,B,c).
func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t.Name)
	}
	b.WriteByte(')')
	return b.String()
}

// Key returns a canonical string for a ground atom, used as a map key.
// It panics if the atom is not ground.
func (a Atom) Key() string {
	for _, t := range a.Args {
		if t.IsVar {
			panic(fmt.Sprintf("term: Key on non-ground atom %s", a))
		}
	}
	return a.String()
}

// Equal reports structural equality of atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args}
}

// Subst is a substitution: a mapping from variable names to terms.
type Subst map[string]Term

// NewSubst returns an empty substitution.
func NewSubst() Subst { return make(Subst) }

// Clone returns a copy of the substitution.
func (s Subst) Clone() Subst {
	c := make(Subst, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Lookup resolves a term under the substitution, following variable
// bindings transitively.
func (s Subst) Lookup(t Term) Term {
	for t.IsVar {
		u, ok := s[t.Name]
		if !ok {
			return t
		}
		if u.IsVar && u.Name == t.Name {
			return t
		}
		t = u
	}
	return t
}

// Apply returns the atom with all bound variables replaced.
func (s Subst) Apply(a Atom) Atom {
	out := Atom{Pred: a.Pred, Args: make([]Term, len(a.Args))}
	for i, t := range a.Args {
		out.Args[i] = s.Lookup(t)
	}
	return out
}

// ApplyInto is Apply with a caller-supplied argument buffer: resolved
// arguments are appended to buf[:0] and the returned atom aliases that
// buffer. Hot join loops (constraint matching) keep one buffer per
// recursion depth so pattern application stops allocating per
// candidate; callers must not use the returned atom after reusing buf.
func (s Subst) ApplyInto(a Atom, buf []Term) Atom {
	buf = buf[:0]
	for _, t := range a.Args {
		buf = append(buf, s.Lookup(t))
	}
	return Atom{Pred: a.Pred, Args: buf}
}

// ApplyTerm resolves a single term.
func (s Subst) ApplyTerm(t Term) Term { return s.Lookup(t) }

// Bind adds a binding var -> t. It returns false if var is already
// bound to a different term.
func (s Subst) Bind(v string, t Term) bool {
	if cur, ok := s[v]; ok {
		cur = s.Lookup(cur)
		t = s.Lookup(t)
		return cur.Equal(t)
	}
	s[v] = t
	return true
}

// Match extends s so that pattern, a possibly non-ground atom, matches
// the ground atom fact. Match is one-way (only pattern variables are
// bound). It reports success; on failure s may be partially extended,
// so callers should match against a clone when backtracking.
func Match(pattern, fact Atom, s Subst) bool {
	if pattern.Pred != fact.Pred || len(pattern.Args) != len(fact.Args) {
		return false
	}
	for i, pt := range pattern.Args {
		ft := fact.Args[i]
		if ft.IsVar {
			return false // facts must be ground
		}
		pt = s.Lookup(pt)
		if pt.IsVar {
			s[pt.Name] = ft
			continue
		}
		if pt.Name != ft.Name {
			return false
		}
	}
	return true
}

// MatchTrail is Match with an undo trail instead of a cloned
// substitution: every variable it binds is appended to *trail, so the
// caller can backtrack with UnbindTrail instead of cloning s for each
// candidate fact. On failure s may hold partial bindings — they are all
// on the trail, so a single UnbindTrail restores the previous state.
func MatchTrail(pattern, fact Atom, s Subst, trail *[]string) bool {
	if pattern.Pred != fact.Pred || len(pattern.Args) != len(fact.Args) {
		return false
	}
	for i, pt := range pattern.Args {
		ft := fact.Args[i]
		if ft.IsVar {
			return false // facts must be ground
		}
		pt = s.Lookup(pt)
		if pt.IsVar {
			s[pt.Name] = ft
			*trail = append(*trail, pt.Name)
			continue
		}
		if pt.Name != ft.Name {
			return false
		}
	}
	return true
}

// UnbindTrail removes from s every binding recorded on the trail after
// mark and truncates the trail back to mark.
func UnbindTrail(s Subst, trail []string, mark int) []string {
	for i := len(trail) - 1; i >= mark; i-- {
		delete(s, trail[i])
	}
	return trail[:mark]
}

// Keyer interns canonical ground-atom keys into a symbol table, so hot
// paths (grounding, model bookkeeping) can identify ground atoms by a
// machine word instead of building and hashing the rendered string. The
// rendered form matches Atom.Key exactly; KeyID panics on non-ground
// atoms like Key does. A Keyer reuses an internal buffer and is NOT
// safe for concurrent use; the underlying Table is.
type Keyer struct {
	tab *symtab.Table
	buf []byte
}

// NewKeyer returns a Keyer interning into tab (a fresh table if nil).
func NewKeyer(tab *symtab.Table) *Keyer {
	if tab == nil {
		tab = symtab.New()
	}
	return &Keyer{tab: tab}
}

// Table exposes the underlying symbol table.
func (k *Keyer) Table() *symtab.Table { return k.tab }

// KeyID interns the canonical key of the ground atom and returns its
// id. Known atoms do not allocate.
func (k *Keyer) KeyID(a Atom) symtab.Sym {
	k.buf = k.buf[:0]
	k.buf = append(k.buf, a.Pred...)
	if len(a.Args) > 0 {
		k.buf = append(k.buf, '(')
		for i, t := range a.Args {
			if t.IsVar {
				panic(fmt.Sprintf("term: KeyID on non-ground atom %s", a))
			}
			if i > 0 {
				k.buf = append(k.buf, ',')
			}
			k.buf = append(k.buf, t.Name...)
		}
		k.buf = append(k.buf, ')')
	}
	return k.tab.InternBytes(k.buf)
}

// KeyName returns the rendered key for an id previously returned by
// KeyID.
func (k *Keyer) KeyName(id symtab.Sym) string { return k.tab.Name(id) }

// KeyIDSubst interns the canonical key of the atom under the
// substitution — the id KeyID(s.Apply(a)) would return — without
// materializing the applied atom. ok is false when some argument
// resolves to a variable; the grounder's emission loop uses this to
// render, resolve and intern in one pass.
func (k *Keyer) KeyIDSubst(a Atom, s Subst) (id symtab.Sym, ok bool) {
	k.buf = k.buf[:0]
	k.buf = append(k.buf, a.Pred...)
	if len(a.Args) > 0 {
		k.buf = append(k.buf, '(')
		for i, t := range a.Args {
			if t.IsVar {
				t = s.Lookup(t)
				if t.IsVar {
					return 0, false
				}
			}
			if i > 0 {
				k.buf = append(k.buf, ',')
			}
			k.buf = append(k.buf, t.Name...)
		}
		k.buf = append(k.buf, ')')
	}
	return k.tab.InternBytes(k.buf), true
}

// ConstArgs appends one constant term per value to dst. Hot matching
// loops use it to render stored tuples as atom arguments into a
// reusable buffer instead of allocating a fresh slice per candidate.
func ConstArgs(dst []Term, vals []string) []Term {
	for _, v := range vals {
		dst = append(dst, Term{Name: v})
	}
	return dst
}
