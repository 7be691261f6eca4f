// Package core implements the paper's primary contribution: the
// semantics of peer-to-peer data exchange systems (Definition 2), peer
// solutions (Definition 4, direct case) and peer consistent answers
// (Definition 5). Solutions are computed model-theoretically with the
// repair engine (internal/repair); internal/program provides the
// equivalent answer-set-programming route of Section 3, and the two are
// cross-validated in tests.
package core

import (
	"fmt"
	"sort"

	"repro/internal/constraint"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// PeerID names a peer.
type PeerID string

// TrustLevel is the second component of the trust relation: when
// (P, less, Q) ∈ trust, P trusts itself less than Q (Q's data is more
// reliable); (P, same, Q) means equal trust.
type TrustLevel int

// Trust levels.
const (
	TrustNone TrustLevel = iota // no trust edge
	TrustLess                   // (P, less, Q): Q is more trusted than P
	TrustSame                   // (P, same, Q): Q is trusted like P
)

// String renders the trust level as in the paper.
func (t TrustLevel) String() string {
	switch t {
	case TrustLess:
		return "less"
	case TrustSame:
		return "same"
	default:
		return "none"
	}
}

// Peer is one member of the system (Definition 2(b)-(e)): a schema, an
// instance, local ICs and the data exchange constraints Σ(P,Q) it
// maintains toward other peers, plus its trust edges.
type Peer struct {
	ID     PeerID
	Schema *relation.Schema
	Inst   *relation.Instance
	// ICs are the local integrity constraints IC(P) over R(P).
	ICs []*constraint.Dependency
	// DECs maps a neighbour Q to Σ(P,Q), the exchange constraints P
	// maintains with Q (sentences over R(P) ∪ R(Q)).
	DECs map[PeerID][]*constraint.Dependency
	// Trust maps a neighbour Q to the trust P places in it.
	Trust map[PeerID]TrustLevel
}

// NewPeer creates an empty peer.
func NewPeer(id PeerID) *Peer {
	return &Peer{
		ID:     id,
		Schema: relation.NewSchema(),
		Inst:   relation.NewInstance(),
		DECs:   make(map[PeerID][]*constraint.Dependency),
		Trust:  make(map[PeerID]TrustLevel),
	}
}

// Declare adds a relation to the peer's schema.
func (p *Peer) Declare(name string, arity int) *Peer {
	p.Schema.Add(relation.RelDecl{Name: name, Arity: arity})
	return p
}

// Fact inserts a tuple into the peer's instance.
func (p *Peer) Fact(rel string, vals ...string) *Peer {
	d, ok := p.Schema.Decl(rel)
	if !ok {
		panic(fmt.Sprintf("core: peer %s has no relation %s", p.ID, rel))
	}
	if d.Arity != len(vals) {
		panic(fmt.Sprintf("core: relation %s has arity %d, got %d values", rel, d.Arity, len(vals)))
	}
	p.Inst.Insert(rel, relation.Tuple(vals))
	return p
}

// AddDEC registers an exchange constraint in Σ(P,Q).
func (p *Peer) AddDEC(other PeerID, d *constraint.Dependency) *Peer {
	p.DECs[other] = append(p.DECs[other], d)
	return p
}

// AddIC registers a local integrity constraint.
func (p *Peer) AddIC(d *constraint.Dependency) *Peer {
	p.ICs = append(p.ICs, d)
	return p
}

// SetTrust records a trust edge toward another peer.
func (p *Peer) SetTrust(other PeerID, lvl TrustLevel) *Peer {
	p.Trust[other] = lvl
	return p
}

// Clone returns a snapshot copy of the peer: a copy-on-write clone of
// the instance (relation.Instance.Clone shares the symbol table, the
// immutable id tuples and the built read caches, so this is cheap)
// together with fresh IC/DEC/Trust containers. The *Dependency values
// themselves are shared — the engines and internal/slice compare
// dependencies by identity, so a clone participates in slices computed
// on the original. The schema is copied: a served peer may grow its
// schema through UpdateLocal (Declare), and a clone handed to the
// snapshot/export paths must not observe that mutation mid-read.
func (p *Peer) Clone() *Peer {
	c := &Peer{
		ID:     p.ID,
		Schema: p.Schema.Copy(),
		Inst:   p.Inst.Clone(),
		ICs:    append([]*constraint.Dependency(nil), p.ICs...),
		DECs:   make(map[PeerID][]*constraint.Dependency, len(p.DECs)),
		Trust:  make(map[PeerID]TrustLevel, len(p.Trust)),
	}
	for q, deps := range p.DECs {
		c.DECs[q] = append([]*constraint.Dependency(nil), deps...)
	}
	for q, lvl := range p.Trust {
		c.Trust[q] = lvl
	}
	return c
}

// System is a P2P data exchange system: a finite set of peers with
// disjoint schemas (Definition 2(a)-(b)). Every system owns one symbol
// table: the first added peer's table is adopted and every later
// peer's instance is re-interned onto it, so all cross-peer operations
// (the global instance, repairs, constraint matching) compare constants
// by interned id rather than by string.
type System struct {
	peers map[PeerID]*Peer
	order []PeerID
	owner map[string]PeerID // relation name -> owning peer
	tab   *symtab.Table     // shared symbol table; nil until the first peer
}

// NewSystem creates an empty system.
func NewSystem() *System {
	return &System{peers: make(map[PeerID]*Peer), owner: make(map[string]PeerID)}
}

// Symtab returns the system's shared symbol table (the first peer's
// table; a fresh one for an empty system). Note that an empty system's
// table is replaced when the first peer is added — query it after the
// peers are registered.
func (s *System) Symtab() *symtab.Table {
	if s.tab == nil {
		s.tab = symtab.New()
	}
	return s.tab
}

// AddPeer registers a peer; schemas must stay disjoint. The peer's
// instance is re-homed onto the system's symbol table (adopting the
// peer's own table if this is the first peer, which leaves the peer's
// instance untouched — nodes sharing one live peer across snapshot
// systems rely on that).
func (s *System) AddPeer(p *Peer) error {
	if _, dup := s.peers[p.ID]; dup {
		return fmt.Errorf("core: duplicate peer %s", p.ID)
	}
	for _, rel := range p.Schema.Relations() {
		if o, taken := s.owner[rel]; taken {
			return fmt.Errorf("core: relation %s of peer %s already owned by %s (schemas must be disjoint)", rel, p.ID, o)
		}
	}
	// Adopt the first peer's table even if Symtab() was called on the
	// empty system: the "first peer is never mutated" guarantee must
	// not depend on whether anyone peeked at the table beforehand.
	if len(s.order) == 0 {
		s.tab = p.Inst.Table()
	} else {
		p.Inst.Rehome(s.tab)
	}
	s.peers[p.ID] = p
	s.order = append(s.order, p.ID)
	for _, rel := range p.Schema.Relations() {
		s.owner[rel] = p.ID
	}
	return nil
}

// MustAddPeer is AddPeer that panics on error, for fluent construction.
func (s *System) MustAddPeer(p *Peer) *System {
	if err := s.AddPeer(p); err != nil {
		panic(err)
	}
	return s
}

// Peer returns a peer by id.
func (s *System) Peer(id PeerID) (*Peer, bool) {
	p, ok := s.peers[id]
	return p, ok
}

// Peers returns the peer ids in registration order.
func (s *System) Peers() []PeerID {
	out := make([]PeerID, len(s.order))
	copy(out, s.order)
	return out
}

// Owner returns the peer owning a relation.
func (s *System) Owner(rel string) (PeerID, bool) {
	id, ok := s.owner[rel]
	return id, ok
}

// Global returns the union of all peer instances — the instance r̄ on
// the combined schema (Definition 3(b)). All peers share the system's
// symbol table, so the union reuses interned id tuples directly.
func (s *System) Global() *relation.Instance {
	g := relation.NewInstanceIn(s.tab)
	for _, id := range s.order {
		g.AddAll(s.peers[id].Inst)
	}
	return g
}

// Validate checks that every DEC is well-formed, references only
// declared relations and that each DEC of peer P mentions at least one
// relation of P or of the named neighbour.
func (s *System) Validate() error {
	for _, id := range s.order {
		p := s.peers[id]
		for _, ic := range p.ICs {
			if err := ic.Validate(); err != nil {
				return fmt.Errorf("peer %s: %w", id, err)
			}
			for pred := range ic.Preds() {
				if o := s.owner[pred]; o != id {
					return fmt.Errorf("core: IC %s of peer %s uses foreign relation %s", ic.Name, id, pred)
				}
			}
		}
		for q, deps := range p.DECs {
			if _, ok := s.peers[q]; !ok {
				return fmt.Errorf("core: peer %s has DECs toward unknown peer %s", id, q)
			}
			for _, d := range deps {
				if err := d.Validate(); err != nil {
					return fmt.Errorf("peer %s: %w", id, err)
				}
				for pred := range d.Preds() {
					o, ok := s.owner[pred]
					if !ok {
						return fmt.Errorf("core: DEC %s of peer %s uses undeclared relation %s", d.Name, id, pred)
					}
					if o != id && o != q {
						return fmt.Errorf("core: DEC %s in Sigma(%s,%s) uses relation %s of third peer %s", d.Name, id, q, pred, o)
					}
				}
			}
		}
	}
	return nil
}

// TrustedPeers returns the neighbours of P at the given level, sorted.
func (s *System) TrustedPeers(id PeerID, lvl TrustLevel) []PeerID {
	p, ok := s.peers[id]
	if !ok {
		return nil
	}
	var out []PeerID
	for q, l := range p.Trust {
		if l == lvl {
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
