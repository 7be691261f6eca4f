// Package sysdsl reads and writes P2P data exchange systems in a small
// text format, used by the CLI tools, the examples and the network
// substrate (peers export their specification over the wire in this
// format). A system is a sequence of peer blocks:
//
//	peer P1 {
//	  relation r1/2
//	  fact r1(a, b).
//	  trust less P2
//	  trust same P3
//	  dec P2: r2(X,Y) -> r1(X,Y).
//	  dec P3: r1(X,Y), r3(X,Z) -> Y = Z.
//	  dec Q: r1(X,Y), s1(Z,Y) -> exists W: r2(X,W), s2(Z,W).
//	  ic r1(X,Y), r1(X,Z) -> Y = Z.
//	}
//
// Constraint syntax: a comma-separated body of atoms and comparisons,
// '->', then either 'false' (denial), a conjunction of equalities
// (EGD), or an optionally 'exists VARS:'-prefixed conjunction of atoms
// (TGD). Identifiers starting upper-case (or '_') are variables; '%'
// starts a comment.
package sysdsl

import (
	"fmt"
	"strings"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/term"
)

// Parse reads a whole system and validates it.
func Parse(input string) (*core.System, error) {
	s, err := ParsePartial(input)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ParsePartial reads a system without validating cross-peer references;
// used by the network substrate, which assembles a system from
// independently exported peer fragments and validates at the end.
func ParsePartial(input string) (*core.System, error) {
	p := &parser{toks: lex(input)}
	s := core.NewSystem()
	for !p.atEOF() {
		if err := p.expect("peer"); err != nil {
			return nil, err
		}
		peer, err := p.peerBlock()
		if err != nil {
			return nil, err
		}
		if err := s.AddPeer(peer); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustParse panics on error; for fixed specs in tests and examples.
func MustParse(input string) *core.System {
	s, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseConstraint parses a single dependency (without trailing '.').
func ParseConstraint(name, input string) (*constraint.Dependency, error) {
	p := &parser{toks: lex(input + " .")}
	d, err := p.dependency(name)
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing input after constraint")
	}
	return d, nil
}

// --- lexer ---------------------------------------------------------------

type token struct {
	text string
	line int
}

func lex(s string) []token {
	var toks []token
	line := 1
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '%':
			for i < len(s) && s[i] != '\n' {
				i++
			}
		case isIdentStart(c) || (c >= '0' && c <= '9'):
			j := i + 1
			for j < len(s) && isIdentChar(s[j]) {
				j++
			}
			toks = append(toks, token{s[i:j], line})
			i = j
		case c == '-' && i+1 < len(s) && s[i+1] == '>':
			toks = append(toks, token{"->", line})
			i += 2
		case c == '!' && i+1 < len(s) && s[i+1] == '=':
			toks = append(toks, token{"!=", line})
			i += 2
		case c == '<' && i+1 < len(s) && s[i+1] == '=':
			toks = append(toks, token{"<=", line})
			i += 2
		case c == '>' && i+1 < len(s) && s[i+1] == '=':
			toks = append(toks, token{">=", line})
			i += 2
		case strings.ContainsRune("{}(),./:=<>", rune(c)):
			toks = append(toks, token{string(c), line})
			i++
		default:
			toks = append(toks, token{"\x00" + string(c), line})
			i++
		}
	}
	return toks
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

// --- parser --------------------------------------------------------------

type parser struct {
	toks []token
	pos  int
}

func (p *parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() token {
	if p.atEOF() {
		return token{"", -1}
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) errf(format string, args ...any) error {
	line := -1
	if p.pos < len(p.toks) {
		line = p.toks[p.pos].line
	} else if len(p.toks) > 0 {
		line = p.toks[len(p.toks)-1].line
	}
	return fmt.Errorf("sysdsl: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(text string) error {
	t := p.next()
	if t.text != text {
		return p.errf("expected %q, got %q", text, t.text)
	}
	return nil
}

func (p *parser) peerBlock() (*core.Peer, error) {
	name := p.next()
	if !isIdent(name.text) {
		return nil, p.errf("expected peer name, got %q", name.text)
	}
	peer := core.NewPeer(core.PeerID(name.text))
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	decCount := 0
	for {
		t := p.next()
		switch t.text {
		case "}":
			return peer, nil
		case "relation":
			rel := p.next()
			if !isIdent(rel.text) {
				return nil, p.errf("bad relation name %q", rel.text)
			}
			if err := p.expect("/"); err != nil {
				return nil, err
			}
			ar := p.next()
			n, ok := atoiTok(ar.text)
			if !ok || n < 0 {
				return nil, p.errf("bad arity %q", ar.text)
			}
			peer.Declare(rel.text, n)
		case "fact":
			a, err := p.atom()
			if err != nil {
				return nil, err
			}
			if !a.IsGround() {
				return nil, p.errf("fact %s must be ground", a)
			}
			if err := p.expect("."); err != nil {
				return nil, err
			}
			vals := make([]string, len(a.Args))
			for i, arg := range a.Args {
				vals[i] = arg.Name
			}
			if !peer.Schema.Has(a.Pred) {
				return nil, p.errf("fact for undeclared relation %s", a.Pred)
			}
			peer.Fact(a.Pred, vals...)
		case "trust":
			lvl := p.next()
			var l core.TrustLevel
			switch lvl.text {
			case "less":
				l = core.TrustLess
			case "same":
				l = core.TrustSame
			default:
				return nil, p.errf("trust level must be 'less' or 'same', got %q", lvl.text)
			}
			other := p.next()
			if !isIdent(other.text) {
				return nil, p.errf("bad peer name %q", other.text)
			}
			peer.SetTrust(core.PeerID(other.text), l)
		case "dec":
			other := p.next()
			if !isIdent(other.text) {
				return nil, p.errf("bad peer name %q in dec", other.text)
			}
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			decCount++
			d, err := p.dependency(fmt.Sprintf("sigma(%s,%s)#%d", peer.ID, other.text, decCount))
			if err != nil {
				return nil, err
			}
			peer.AddDEC(core.PeerID(other.text), d)
		case "ic":
			decCount++
			d, err := p.dependency(fmt.Sprintf("ic(%s)#%d", peer.ID, decCount))
			if err != nil {
				return nil, err
			}
			peer.AddIC(d)
		default:
			return nil, p.errf("unexpected %q in peer block", t.text)
		}
	}
}

// dependency parses "body -> head ." where head is 'false', equalities,
// or 'exists VARS:' atoms.
func (p *parser) dependency(name string) (*constraint.Dependency, error) {
	d := &constraint.Dependency{Name: name}
	// Body.
	for {
		if cmp, ok, err := p.tryComparison(); err != nil {
			return nil, err
		} else if ok {
			d.Cond = append(d.Cond, cmp)
		} else {
			a, err := p.atom()
			if err != nil {
				return nil, err
			}
			d.Body = append(d.Body, a)
		}
		t := p.next()
		if t.text == "," {
			continue
		}
		if t.text == "->" {
			break
		}
		return nil, p.errf("expected ',' or '->', got %q", t.text)
	}
	// Head.
	if p.peek().text == "false" {
		p.next()
		if err := p.expect("."); err != nil {
			return nil, err
		}
		return d, d.Validate()
	}
	if p.peek().text == "exists" {
		p.next()
		for {
			v := p.next()
			if !isVar(v.text) {
				return nil, p.errf("existential name %q must be a variable", v.text)
			}
			d.ExVars = append(d.ExVars, v.text)
			if p.peek().text != "," {
				break
			}
			p.next()
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
	}
	for {
		if cmp, ok, err := p.tryComparison(); err != nil {
			return nil, err
		} else if ok {
			d.HeadEq = append(d.HeadEq, cmp)
		} else {
			a, err := p.atom()
			if err != nil {
				return nil, err
			}
			d.Head = append(d.Head, a)
		}
		t := p.next()
		if t.text == "," {
			continue
		}
		if t.text == "." {
			break
		}
		return nil, p.errf("expected ',' or '.', got %q", t.text)
	}
	return d, d.Validate()
}

// tryComparison parses "term op term" when the lookahead matches.
func (p *parser) tryComparison() (constraint.Comparison, bool, error) {
	t := p.peek()
	if !isIdent(t.text) && !isNumber(t.text) {
		return constraint.Comparison{}, false, nil
	}
	if p.pos+1 < len(p.toks) {
		switch p.toks[p.pos+1].text {
		case "=", "!=", "<", "<=", ">", ">=":
			l := p.next()
			op := p.next().text
			r := p.next()
			if !isIdent(r.text) && !isNumber(r.text) {
				return constraint.Comparison{}, false, p.errf("bad comparison operand %q", r.text)
			}
			return constraint.Comparison{Op: op, L: mkTerm(l.text), R: mkTerm(r.text)}, true, nil
		}
	}
	return constraint.Comparison{}, false, nil
}

func (p *parser) atom() (term.Atom, error) {
	t := p.next()
	if !isIdent(t.text) || isVar(t.text) {
		return term.Atom{}, p.errf("expected relation name, got %q", t.text)
	}
	a := term.Atom{Pred: t.text}
	if err := p.expect("("); err != nil {
		return a, err
	}
	if p.peek().text != ")" {
		for {
			tt := p.next()
			if !isIdent(tt.text) && !isNumber(tt.text) {
				return a, p.errf("bad term %q", tt.text)
			}
			a.Args = append(a.Args, mkTerm(tt.text))
			if p.peek().text != "," {
				break
			}
			p.next()
		}
	}
	if err := p.expect(")"); err != nil {
		return a, err
	}
	return a, nil
}

func isIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentChar(s[i]) {
			return false
		}
	}
	return true
}

func isNumber(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func isVar(s string) bool {
	return s != "" && (s[0] == '_' || (s[0] >= 'A' && s[0] <= 'Z'))
}

func mkTerm(s string) term.Term {
	if isVar(s) {
		return term.V(s)
	}
	return term.C(s)
}

func atoiTok(s string) (int, bool) {
	if !isNumber(s) {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}

// --- serializer ----------------------------------------------------------

// Format renders a system back into the DSL (round-trippable).
func Format(s *core.System) string { return format(s, true) }

// FormatSpec renders a system's specification only — schemas, trust,
// DECs and ICs, no fact lines. The network substrate ships this form
// when a peer needs a neighbour's schema and constraints to plan a
// query-relevance slice but not (yet) its data.
func FormatSpec(s *core.System) string { return format(s, false) }

func format(s *core.System, withFacts bool) string {
	var b strings.Builder
	for _, id := range s.Peers() {
		p, _ := s.Peer(id)
		fmt.Fprintf(&b, "peer %s {\n", id)
		for _, rel := range p.Schema.Relations() {
			d, _ := p.Schema.Decl(rel)
			fmt.Fprintf(&b, "  relation %s/%d\n", rel, d.Arity)
		}
		if withFacts {
			for _, rel := range p.Schema.Relations() {
				for _, t := range p.Inst.Tuples(rel) {
					fmt.Fprintf(&b, "  fact %s%s.\n", rel, t)
				}
			}
		}
		for _, lvl := range []core.TrustLevel{core.TrustLess, core.TrustSame} {
			for _, q := range s.TrustedPeers(id, lvl) {
				fmt.Fprintf(&b, "  trust %s %s\n", lvl, q)
			}
		}
		for _, q := range sortedNeighbours(p) {
			for _, d := range p.DECs[core.PeerID(q)] {
				fmt.Fprintf(&b, "  dec %s: %s.\n", q, FormatConstraint(d))
			}
		}
		for _, ic := range p.ICs {
			fmt.Fprintf(&b, "  ic %s.\n", FormatConstraint(ic))
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// FormatConstraint renders a dependency in the DSL constraint syntax.
func FormatConstraint(d *constraint.Dependency) string {
	var parts []string
	for _, a := range d.Body {
		parts = append(parts, a.String())
	}
	for _, c := range d.Cond {
		parts = append(parts, c.String())
	}
	out := strings.Join(parts, ", ") + " -> "
	if d.IsDenial() {
		return out + "false"
	}
	var head []string
	for _, a := range d.Head {
		head = append(head, a.String())
	}
	for _, c := range d.HeadEq {
		head = append(head, c.String())
	}
	if len(d.ExVars) > 0 {
		out += "exists " + strings.Join(d.ExVars, ",") + ": "
	}
	return out + strings.Join(head, ", ")
}

func sortedNeighbours(p *core.Peer) []string {
	var out []string
	for q := range p.DECs {
		out = append(out, string(q))
	}
	// insertion sort for determinism
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
