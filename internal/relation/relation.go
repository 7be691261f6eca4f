// Package relation implements the in-memory relational storage engine
// underlying the P2P data exchange system: database schemas, relation
// instances as sets of ground tuples, instance algebra (union,
// restriction, symmetric difference) and the active domain. It is the
// concrete realization of the instances r(P) of Definition 2 and of the
// distance Δ(r1,r2) of Definition 1 in the paper.
//
// Storage is interned and columnar: every constant is mapped to a dense
// uint32 id in a symtab.Table (shared across the instances of one
// core.System), and each relation keeps its tuples in a packed segment —
// one flat []symtab.Sym arena plus row offsets — addressed by dense
// local row ids. Membership goes through a compact open-addressing hash
// index (tuple content → row id), liveness through a row bitset
// (deletes tombstone their row; re-inserts revive it), and Clone/
// Restrict share whole segments copy-on-write: a clone copies nothing
// until it mutates a relation, which is what makes repair-search
// candidate states cheap at 10^5–10^6-tuple scale. Each relation
// additionally carries lazily built read caches — the sorted string
// view every enumeration is served from and per-column value indexes
// over it — so constraint matching, grounding and the repair search
// join through index lookups instead of full scans. The string-level
// API (Tuple, Insert, Tuples, ...) is preserved as a thin view over the
// packed core, and every enumeration order is unchanged: tuples sort by
// their rendered string key exactly as before.
package relation

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/symtab"
	"repro/internal/term"
)

// Tuple is an ordered list of constant values.
type Tuple []string

// Key returns the canonical encoding of the tuple used for set
// membership. Values are joined with a separator that may not occur in
// constants produced by the parsers (US, unit separator).
func (t Tuple) Key() string { return strings.Join(t, "\x1f") }

// String renders the tuple as (a,b).
func (t Tuple) String() string { return "(" + strings.Join(t, ",") + ")" }

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone copies the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// RelDecl declares a relation: its name and arity. Relation names are
// globally unique across peers (Definition 2 assumes disjoint schemas).
type RelDecl struct {
	Name  string
	Arity int
}

// Schema is a set of relation declarations.
type Schema struct {
	decls map[string]RelDecl
	order []string
}

// NewSchema builds a schema from declarations.
func NewSchema(decls ...RelDecl) *Schema {
	s := &Schema{decls: make(map[string]RelDecl)}
	for _, d := range decls {
		s.Add(d)
	}
	return s
}

// Add inserts or overwrites a declaration.
func (s *Schema) Add(d RelDecl) {
	if _, ok := s.decls[d.Name]; !ok {
		s.order = append(s.order, d.Name)
	}
	s.decls[d.Name] = d
}

// Copy returns an independent schema with the same declarations: the
// snapshot clones of a served peer take one, so a schema-mutating
// write (UpdateLocal running Declare) cannot race readers of an
// earlier snapshot.
func (s *Schema) Copy() *Schema {
	c := &Schema{decls: make(map[string]RelDecl, len(s.decls)), order: make([]string, len(s.order))}
	for n, d := range s.decls {
		c.decls[n] = d
	}
	copy(c.order, s.order)
	return c
}

// Decl returns the declaration of a relation, if present.
func (s *Schema) Decl(name string) (RelDecl, bool) {
	d, ok := s.decls[name]
	return d, ok
}

// Has reports whether the schema declares the relation.
func (s *Schema) Has(name string) bool { _, ok := s.decls[name]; return ok }

// Relations returns the declared relation names in declaration order.
func (s *Schema) Relations() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Union returns a new schema containing the declarations of both.
func (s *Schema) Union(t *Schema) *Schema {
	u := NewSchema()
	for _, n := range s.order {
		u.Add(s.decls[n])
	}
	for _, n := range t.order {
		u.Add(t.decls[n])
	}
	return u
}

// idTuple is a tuple of interned constant ids.
type idTuple []symtab.Sym

// packIDs appends the 4-byte big-endian encoding of each id to dst.
// The packed form is the canonical byte key of an interned id vector.
func packIDs(dst []byte, ids idTuple) []byte {
	for _, id := range ids {
		var w [4]byte
		binary.BigEndian.PutUint32(w[:], id)
		dst = append(dst, w[:]...)
	}
	return dst
}

// relData is the columnar store of one relation. Tuples live in a
// packed segment: the flat ids arena plus row offsets, so row r spans
// ids[offs[r]:offs[r+1]] (handles mixed arity, including arity 0, in
// one code path). Rows are append-only and addressed by dense local
// ids; the live bitset tracks which rows are present (Delete clears the
// bit, leaving a tombstoned row that a later identical Insert revives),
// and slots is an open-addressing hash index from tuple content to
// row+1 for O(1) membership without byte-string keys.
//
// shared marks the segment as referenced by more than one Instance —
// Clone and Restrict set it and hand out the same *relData. The first
// mutation through any holder copies first (copy-on-write), and the
// copy is as shallow as the mutation allows: a liveness change (delete,
// or re-insert of a tombstoned row) copies only the live bitset and
// keeps pointing at the parent's arena (privatizeLive, structShared
// stays set); only appending a genuinely new row copies the arena and
// slot index (privatizeStruct). A repair-search candidate that deletes
// one fact from a million-tuple relation therefore copies kilobytes,
// not megabytes.
type relData struct {
	ids   []symtab.Sym // packed arena of row contents
	offs  []uint32     // row offsets; len = rows+1, offs[0] == 0
	live  bitset.Set   // rows currently present
	liveN int          // == live.Count(), kept incrementally
	slots []int32      // hash index: row+1, 0 = empty; len is a power of two

	shared       atomic.Bool // any part referenced by another Instance
	structShared bool        // ids/offs/slots shared with another relData

	// Read caches, built lazily under mu. The rendered sorted view and
	// the column indexes cover every row ever inserted (tombstones
	// included) and are positioned over that superset, so liveness-only
	// mutations keep them: a delete drops just liveAt and sorted, which
	// rebuild by filtering all — no re-render, no re-sort, no index
	// rebuild. Only a structural mutation (new row) drops everything.
	mu      sync.Mutex
	all     []Tuple                // every row, sorted by Tuple.Key
	allRows []int32                // row ids aligned with all
	liveAt  bitset.Set             // positions in all whose row is live
	sorted  []Tuple                // live rows in sorted order (== all when none dead)
	cols    []map[symtab.Sym][]int // column -> value id -> positions into all
	// gen counts the mutations of the relation; hash is the cached
	// content fingerprint, valid when hashGen == gen (hashGen starts
	// behind gen so the zero value is invalid). Fingerprint composition
	// (slice.DataFingerprint) reuses the cached hash of every relation
	// whose generation did not move instead of rehashing each tuple per
	// query.
	gen     uint64
	hash    uint64
	hashGen uint64
}

func newRelData() *relData { return &relData{offs: []uint32{0}, gen: 1} }

func (r *relData) rowCount() int { return len(r.offs) - 1 }

func (r *relData) rowIDs(row int) idTuple { return r.ids[r.offs[row]:r.offs[row+1]] }

// hashIDs fingerprints an id vector for the slot index (FNV-64a over
// the ids, length-mixed so prefixes of longer rows do not collide).
func hashIDs(ids idTuple) uint64 {
	h := fnv64Offset
	for _, id := range ids {
		h = (h ^ uint64(id)) * fnv64Prime
	}
	return (h ^ uint64(len(ids))) * fnv64Prime
}

func (r *relData) rowEq(row int, ids idTuple) bool {
	got := r.rowIDs(row)
	if len(got) != len(ids) {
		return false
	}
	for i, id := range got {
		if ids[i] != id {
			return false
		}
	}
	return true
}

// findRow returns the dense row id storing the given tuple content
// (live or tombstoned), or -1. Probes compare full content, so hash
// collisions are harmless.
func (r *relData) findRow(ids idTuple) int {
	if len(r.slots) == 0 {
		return -1
	}
	mask := uint64(len(r.slots) - 1)
	for i := hashIDs(ids) & mask; ; i = (i + 1) & mask {
		s := r.slots[i]
		if s == 0 {
			return -1
		}
		if r.rowEq(int(s-1), ids) {
			return int(s - 1)
		}
	}
}

// growIndex rebuilds the slot index with room for want rows at < 3/4
// load. Tombstoned rows stay indexed: they must remain findable so a
// re-insert of identical content revives the row instead of storing a
// duplicate.
func (r *relData) growIndex(want int) {
	n := len(r.slots)
	if n < 16 {
		n = 16
	}
	for want*4 >= n*3 {
		n *= 2
	}
	slots := make([]int32, n)
	mask := uint64(n - 1)
	for row := 0; row < r.rowCount(); row++ {
		for i := hashIDs(r.rowIDs(row)) & mask; ; i = (i + 1) & mask {
			if slots[i] == 0 {
				slots[i] = int32(row + 1)
				break
			}
		}
	}
	r.slots = slots
}

// insertRow appends a new row holding ids (copied into the arena) and
// indexes it. The caller is responsible for liveness.
func (r *relData) insertRow(ids idTuple) int {
	if (r.rowCount()+1)*4 >= len(r.slots)*3 {
		r.growIndex(r.rowCount() + 1)
	}
	row := r.rowCount()
	r.ids = append(r.ids, ids...)
	r.offs = append(r.offs, uint32(len(r.ids)))
	mask := uint64(len(r.slots) - 1)
	for i := hashIDs(ids) & mask; ; i = (i + 1) & mask {
		if r.slots[i] == 0 {
			r.slots[i] = int32(row + 1)
			break
		}
	}
	return row
}

// privatizeLive returns a copy fit for liveness-only mutations: the
// live bitset is copied, the arena/offsets/slot index stay shared with
// the parent (structShared), and the structural read caches — valid for
// the unchanged structure — are carried over by pointer. The copy
// carries the generation forward so RelGen stays monotonic along the
// clone lineage.
func (r *relData) privatizeLive() *relData {
	c := &relData{
		ids:          r.ids,
		offs:         r.offs,
		slots:        r.slots,
		live:         r.live.Clone(),
		liveN:        r.liveN,
		structShared: true,
	}
	r.mu.Lock()
	c.all, c.allRows, c.cols = r.all, r.allRows, r.cols
	c.gen, c.hash, c.hashGen = r.gen, r.hash, r.hashGen
	r.mu.Unlock()
	return c
}

// privatizeStruct returns a fully independent copy, required before
// appending a new row: in-place appends to a shared arena or slot index
// would be visible to (or race with) the other holders.
func (r *relData) privatizeStruct() *relData {
	c := &relData{
		ids:   append([]symtab.Sym(nil), r.ids...),
		offs:  append([]uint32(nil), r.offs...),
		slots: append([]int32(nil), r.slots...),
		live:  r.live.Clone(),
		liveN: r.liveN,
	}
	r.mu.Lock()
	c.all, c.allRows, c.cols = r.all, r.allRows, r.cols
	c.gen, c.hash, c.hashGen = r.gen, r.hash, r.hashGen
	r.mu.Unlock()
	return c
}

// invalidate drops every read cache after a structural mutation (new
// row) and advances the relation's generation.
func (r *relData) invalidate() {
	r.mu.Lock()
	r.all = nil
	r.allRows = nil
	r.liveAt = nil
	r.sorted = nil
	r.cols = nil
	r.gen++
	r.mu.Unlock()
}

// invalidateLive drops only the liveness-dependent caches after a
// delete or revival: the rendered superset view and the column indexes
// survive, so the rebuild is a bitset refresh plus a pointer filter
// instead of a full re-render/re-sort/re-index.
func (r *relData) invalidateLive() {
	r.mu.Lock()
	r.liveAt = nil
	r.sorted = nil
	r.gen++
	r.mu.Unlock()
}

// Instance is a database instance: for each relation name, a set of
// tuples. The zero value is not usable; use NewInstance (private table)
// or NewInstanceIn (table shared with other instances, e.g. per
// core.System). Mutations must not run concurrently with reads of the
// same Instance; the lazily built read caches and the copy-on-write
// segment sharing are internally synchronized, so read-only sharing
// between goroutines — including reading an instance while a clone of
// it is mutated elsewhere — is safe.
type Instance struct {
	tab  *symtab.Table
	rels map[string]*relData
	// journal, when attached (SetJournal), records every membership
	// change. Derived instances (Clone, Union, Restrict) get fresh
	// structs and therefore no journal — see journal.go.
	journal *Journal
}

// NewInstance returns an empty instance with a fresh symbol table.
func NewInstance() *Instance {
	return NewInstanceIn(symtab.New())
}

// NewInstanceIn returns an empty instance interning into the given
// table. Instances derived from this one (Clone, Union, Restrict)
// share the table; tables are append-only and safe for concurrent use.
func NewInstanceIn(tab *symtab.Table) *Instance {
	if tab == nil {
		tab = symtab.New()
	}
	return &Instance{tab: tab, rels: make(map[string]*relData)}
}

// Table returns the symbol table the instance interns into.
func (in *Instance) Table() *symtab.Table { return in.tab }

// Rehome re-interns the instance onto another symbol table, so that it
// shares ids with the instances already living there (core.System does
// this once per added peer). It is a no-op when tab is already the
// instance's table.
func (in *Instance) Rehome(tab *symtab.Table) {
	if tab == nil || tab == in.tab {
		return
	}
	old := in.tab
	in.tab = tab
	for rel, r := range in.rels {
		// Rebuild into a fresh private segment (r may be shared with
		// instances staying on the old table). Tombstoned rows are
		// dropped along the way.
		nr := newRelData()
		nr.gen = r.gen + 1
		r.live.ForEach(func(row uint32) {
			oids := r.rowIDs(int(row))
			nids := make(idTuple, len(oids))
			for i, id := range oids {
				nids[i] = tab.Intern(old.Name(id))
			}
			nrow := nr.insertRow(nids)
			nr.live.Set(uint32(nrow))
			nr.liveN++
		})
		in.rels[rel] = nr
	}
}

// intern converts a string tuple to ids, interning unseen constants.
func (in *Instance) intern(t Tuple) idTuple {
	ids := make(idTuple, len(t))
	for i, v := range t {
		ids[i] = in.tab.Intern(v)
	}
	return ids
}

// lookupInto converts a string tuple to ids without interning,
// appending to buf (callers pass a stack buffer to keep hot membership
// probes allocation-free); ok is false when some constant is unknown to
// the table (then the tuple cannot be present in any relation of this
// instance).
func (in *Instance) lookupInto(buf idTuple, t Tuple) (idTuple, bool) {
	for _, v := range t {
		id, ok := in.tab.Lookup(v)
		if !ok {
			return nil, false
		}
		buf = append(buf, id)
	}
	return buf, true
}

// strings renders an id tuple back to a string tuple.
func (in *Instance) strings(ids idTuple) Tuple {
	t := make(Tuple, len(ids))
	for i, id := range ids {
		t[i] = in.tab.Name(id)
	}
	return t
}

// Insert adds a tuple to the named relation. It reports whether the
// tuple was newly added.
func (in *Instance) Insert(rel string, t Tuple) bool {
	var buf [8]symtab.Sym
	ids := idTuple(buf[:0])
	for _, v := range t {
		ids = append(ids, in.tab.Intern(v))
	}
	return in.insertIDs(rel, ids)
}

// insertIDs adds an id tuple, copying it into the relation's arena. The
// duplicate probe runs before any copy-on-write, so inserting an
// already-present tuple into a shared segment copies nothing; reviving
// a tombstoned row copies only liveness.
func (in *Instance) insertIDs(rel string, ids idTuple) bool {
	r, ok := in.rels[rel]
	if !ok {
		r = newRelData()
		in.rels[rel] = r
	} else if row := r.findRow(ids); row >= 0 {
		if r.live.Has(uint32(row)) {
			return false
		}
		if r.shared.Load() {
			r = r.privatizeLive()
			in.rels[rel] = r
		}
		r.live.Set(uint32(row))
		r.liveN++
		r.invalidateLive()
		if in.journal != nil {
			in.journal.record(Fact{Rel: rel, Tuple: in.strings(ids)}, true)
		}
		return true
	} else if r.shared.Load() || r.structShared {
		r = r.privatizeStruct()
		in.rels[rel] = r
	}
	row := r.insertRow(ids)
	r.live.Set(uint32(row))
	r.liveN++
	r.invalidate()
	if in.journal != nil {
		in.journal.record(Fact{Rel: rel, Tuple: in.strings(ids)}, true)
	}
	return true
}

// InsertAtom adds a ground atom; it panics on non-ground atoms.
func (in *Instance) InsertAtom(a term.Atom) bool {
	var buf [8]symtab.Sym
	ids := idTuple(buf[:0])
	for _, arg := range a.Args {
		if arg.IsVar {
			panic(fmt.Sprintf("relation: InsertAtom on non-ground atom %s", a))
		}
		ids = append(ids, in.tab.Intern(arg.Name))
	}
	return in.insertIDs(a.Pred, ids)
}

// Delete removes a tuple; it reports whether the tuple was present.
// The row is tombstoned (live bit cleared), not compacted away, so
// deletes never move rows; a later identical Insert revives it.
func (in *Instance) Delete(rel string, t Tuple) bool {
	r, ok := in.rels[rel]
	if !ok {
		return false
	}
	var buf [8]symtab.Sym
	ids, ok := in.lookupInto(buf[:0], t)
	if !ok {
		return false
	}
	row := r.findRow(ids)
	if row < 0 || !r.live.Has(uint32(row)) {
		return false
	}
	if r.shared.Load() {
		r = r.privatizeLive()
		in.rels[rel] = r
	}
	r.live.Clear(uint32(row))
	r.liveN--
	r.invalidateLive()
	if in.journal != nil {
		in.journal.record(Fact{Rel: rel, Tuple: t.Clone()}, false)
	}
	return true
}

// Has reports membership of a tuple.
func (in *Instance) Has(rel string, t Tuple) bool {
	r, ok := in.rels[rel]
	if !ok {
		return false
	}
	var buf [8]symtab.Sym
	ids, ok := in.lookupInto(buf[:0], t)
	if !ok {
		return false
	}
	row := r.findRow(ids)
	return row >= 0 && r.live.Has(uint32(row))
}

// HasAtom reports membership of a ground atom.
func (in *Instance) HasAtom(a term.Atom) bool {
	r, ok := in.rels[a.Pred]
	if !ok {
		return false
	}
	var buf [8]symtab.Sym
	ids := idTuple(buf[:0])
	for _, arg := range a.Args {
		if arg.IsVar {
			return false
		}
		id, known := in.tab.Lookup(arg.Name)
		if !known {
			return false
		}
		ids = append(ids, id)
	}
	row := r.findRow(ids)
	return row >= 0 && r.live.Has(uint32(row))
}

// buildViews (re)builds the relation's read caches under r.mu, each
// level only if missing: the rendered superset view (every row ever
// inserted, sorted by canonical key — keys are rendered once per tuple,
// not once per comparison), the position-liveness bitset over it, and
// the live sorted view. After a liveness-only mutation the first level
// is still present, so the rebuild is a bitset refresh plus a pointer
// filter over already-rendered tuples.
func (in *Instance) buildViews(r *relData) {
	if r.all == nil && r.rowCount() > 0 {
		type rec struct {
			key string
			t   Tuple
			row int32
		}
		n := r.rowCount()
		recs := make([]rec, 0, n)
		for row := 0; row < n; row++ {
			t := in.strings(r.rowIDs(row))
			recs = append(recs, rec{key: t.Key(), t: t, row: int32(row)})
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
		r.all = make([]Tuple, len(recs))
		r.allRows = make([]int32, len(recs))
		for i, rc := range recs {
			r.all[i] = rc.t
			r.allRows[i] = rc.row
		}
	}
	if r.liveN == 0 {
		return
	}
	if r.liveAt == nil {
		la := bitset.New(len(r.all))
		for i, row := range r.allRows {
			if r.live.Has(uint32(row)) {
				la.Set(uint32(i))
			}
		}
		r.liveAt = la
	}
	if r.sorted == nil {
		if r.liveN == len(r.all) {
			r.sorted = r.all
		} else {
			s := make([]Tuple, 0, r.liveN)
			r.liveAt.ForEach(func(i uint32) {
				s = append(s, r.all[int(i)])
			})
			r.sorted = s
		}
	}
}

// sortedView returns the relation's cached sorted string view, building
// it on first use. The returned slice and its tuples are read-only.
func (in *Instance) sortedView(rel string) []Tuple {
	r, ok := in.rels[rel]
	if !ok || r.liveN == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	in.buildViews(r)
	return r.sorted
}

// colIndex returns the relation's lazily built per-column indexes plus
// the views they are positioned over. The indexes are built directly
// from the packed segment (no string re-hashing) and cover tombstoned
// rows too, which is what lets them survive deletes; MatchingTuples
// filters candidates through liveAt.
func (in *Instance) colIndex(rel string) (cols []map[symtab.Sym][]int, all, sorted []Tuple, liveAt bitset.Set) {
	r, ok := in.rels[rel]
	if !ok || r.liveN == 0 {
		return nil, nil, nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	in.buildViews(r)
	if r.cols == nil && len(r.all) > 0 {
		arity := 0
		for _, row := range r.allRows {
			if n := len(r.rowIDs(int(row))); n > arity {
				arity = n
			}
		}
		cols := make([]map[symtab.Sym][]int, arity)
		for c := range cols {
			cols[c] = make(map[symtab.Sym][]int)
		}
		for i, row := range r.allRows {
			for c, id := range r.rowIDs(int(row)) {
				cols[c][id] = append(cols[c][id], i)
			}
		}
		r.cols = cols
	}
	return r.cols, r.all, r.sorted, r.liveAt
}

// Tuples returns the tuples of a relation in deterministic (sorted)
// order. The returned tuples are copies.
func (in *Instance) Tuples(rel string) []Tuple {
	view := in.sortedView(rel)
	out := make([]Tuple, len(view))
	for i, t := range view {
		out[i] = t.Clone()
	}
	return out
}

// TuplesShared returns the tuples of a relation in the same order as
// Tuples but without copying. The result is a shared read-only view:
// callers must not modify the slice or its tuples, and must not hold it
// across mutations of the instance.
func (in *Instance) TuplesShared(rel string) []Tuple {
	return in.sortedView(rel)
}

// MatchingTuples returns the tuples of pat.Pred that agree with every
// ground argument of the pattern, using the per-column indexes: the
// ground column with the fewest candidates drives the lookup and the
// remaining ground columns filter. Variables match anything, so
// callers still need term.Match for variable consistency (repeated
// variables) and arity. The result preserves the sorted enumeration
// order of Tuples and is a shared read-only view like TuplesShared.
// Patterns with no ground arguments fall back to the full (shared)
// view.
func (in *Instance) MatchingTuples(pat term.Atom) []Tuple {
	var buf []Tuple
	return in.MatchingTuplesBuf(pat, &buf)
}

// MatchingTuplesBuf is MatchingTuples with a caller-supplied result
// buffer: when the pattern has ground columns the filtered result is
// appended into *buf (grown as needed and written back), so hot join
// loops — constraint matching at 10^5-tuple scale — can reuse one
// buffer per recursion depth instead of allocating per probe. The
// full-view fall-back leaves *buf untouched and returns the shared
// sorted view directly; either way the tuples themselves remain shared
// and read-only.
func (in *Instance) MatchingTuplesBuf(pat term.Atom, buf *[]Tuple) []Tuple {
	cols, all, sorted, liveAt := in.colIndex(pat.Pred)
	if len(sorted) == 0 {
		return nil
	}
	best := -1 // candidate index list; -1 means full scan
	var bestList []int
	for c, arg := range pat.Args {
		if arg.IsVar {
			continue
		}
		if c >= len(cols) {
			return nil // ground column beyond every stored arity
		}
		id, known := in.tab.Lookup(arg.Name)
		if !known {
			return nil // constant never interned: no tuple can match
		}
		list := cols[c][id]
		if len(list) == 0 {
			return nil
		}
		if best == -1 || len(list) < len(bestList) {
			best, bestList = c, list
		}
	}
	if best == -1 {
		return sorted
	}
	out := (*buf)[:0]
	for _, idx := range bestList {
		if !liveAt.Has(uint32(idx)) {
			continue // tombstoned row still present in the index
		}
		t := all[idx]
		ok := true
		for c, arg := range pat.Args {
			if arg.IsVar || c == best {
				continue
			}
			if c >= len(t) || t[c] != arg.Name {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	*buf = out
	return out
}

// RelGen returns the mutation generation of a relation: a counter that
// advances on every insert or delete touching the relation. It exists
// so callers can key caches on "has this relation changed" without
// hashing its content; 0 means the relation was never stored.
func (in *Instance) RelGen(rel string) uint64 {
	r, ok := in.rels[rel]
	if !ok {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// RelHash returns an FNV-64a fingerprint of the relation's content (its
// canonical sorted tuple keys). The hash is cached per relation and
// keyed by the relation's generation, so repeated fingerprinting of an
// unchanged relation costs a map probe instead of a rehash of every
// tuple; mutations invalidate only the touched relation's entry. An
// absent or empty relation hashes to the same (offset-basis) value.
func (in *Instance) RelHash(rel string) uint64 {
	r, ok := in.rels[rel]
	if !ok {
		return fnv64Offset
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hashGen == r.gen {
		return r.hash
	}
	in.buildViews(r)
	h := uint64(fnv64Offset)
	for _, t := range r.sorted {
		for i := range t {
			if i > 0 {
				h = fnv64Step(h, '\x1f')
			}
			for j := 0; j < len(t[i]); j++ {
				h = fnv64Step(h, t[i][j])
			}
		}
		h = fnv64Step(h, '\x01')
	}
	r.hash, r.hashGen = h, r.gen
	return h
}

// FNV-64a, inlined so the per-relation hash cache does not allocate a
// hash.Hash64 per probe.
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

func fnv64Step(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnv64Prime }

// Count returns the number of tuples in a relation.
func (in *Instance) Count(rel string) int {
	if r, ok := in.rels[rel]; ok {
		return r.liveN
	}
	return 0
}

// Size returns the total number of tuples in the instance.
func (in *Instance) Size() int {
	n := 0
	for _, r := range in.rels {
		n += r.liveN
	}
	return n
}

// Relations returns the names of the non-empty relations, sorted.
func (in *Instance) Relations() []string {
	out := make([]string, 0, len(in.rels))
	for name, r := range in.rels {
		if r.liveN > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Clone returns a copy of the instance. The clone shares the
// (append-only) symbol table and — copy-on-write — every relation
// segment, including its already-built read caches (sorted views,
// column indexes, content hash): cloning is O(#relations) regardless of
// tuple count, and a segment is physically copied only when one holder
// first mutates that relation (see relData.privatize). This is what
// keeps repair-search candidate states, which differ from their parent
// in a couple of tuples, cheap at large-universe scale.
func (in *Instance) Clone() *Instance {
	c := NewInstanceIn(in.tab)
	for rel, r := range in.rels {
		r.shared.Store(true)
		c.rels[rel] = r
	}
	return c
}

// AddAll inserts every tuple of other into the instance (in-place
// union). When both instances share a symbol table the packed id rows
// are copied arena-to-arena, without re-interning.
func (in *Instance) AddAll(other *Instance) {
	for rel, r := range other.rels {
		if other.tab == in.tab {
			r.live.ForEach(func(row uint32) {
				in.insertIDs(rel, r.rowIDs(int(row)))
			})
		} else {
			r.live.ForEach(func(row uint32) {
				in.Insert(rel, other.strings(r.rowIDs(int(row))))
			})
		}
	}
}

// Union returns a new instance holding the tuples of both. This is the
// global instance r̄ of Definition 3(b).
func (in *Instance) Union(other *Instance) *Instance {
	u := in.Clone()
	u.AddAll(other)
	return u
}

// Restrict returns the restriction of the instance to the relations of
// the given schema (Definition 3(c), r|S').
func (in *Instance) Restrict(s *Schema) *Instance {
	return in.restrict(func(rel string) bool { return s.Has(rel) })
}

// RestrictRels returns the restriction to an explicit set of relation
// names.
func (in *Instance) RestrictRels(names map[string]bool) *Instance {
	return in.restrict(func(rel string) bool { return names[rel] })
}

// restrict shares the kept relations' segments copy-on-write, exactly
// like Clone.
func (in *Instance) restrict(keep func(string) bool) *Instance {
	out := NewInstanceIn(in.tab)
	for rel, rd := range in.rels {
		if !keep(rel) {
			continue
		}
		rd.shared.Store(true)
		out.rels[rel] = rd
	}
	return out
}

// Equal reports whether two instances contain exactly the same tuples.
func (in *Instance) Equal(other *Instance) bool {
	if in.Size() != other.Size() {
		return false
	}
	sameTab := in.tab == other.tab
	for rel, r := range in.rels {
		or := other.rels[rel]
		var on int
		if or != nil {
			on = or.liveN
		}
		if r.liveN != on {
			return false
		}
		if r.liveN == 0 {
			continue
		}
		eq := true
		if sameTab {
			r.live.ForEach(func(row uint32) {
				if !eq {
					return
				}
				orow := or.findRow(r.rowIDs(int(row)))
				if orow < 0 || !or.live.Has(uint32(orow)) {
					eq = false
				}
			})
		} else {
			r.live.ForEach(func(row uint32) {
				if !eq {
					return
				}
				if !other.Has(rel, in.strings(r.rowIDs(int(row)))) {
					eq = false
				}
			})
		}
		if !eq {
			return false
		}
	}
	return true
}

// Key returns a canonical string for the whole instance, usable for
// de-duplication of instances (e.g. of peer solutions).
func (in *Instance) Key() string {
	var parts []string
	for _, rel := range in.Relations() {
		for _, t := range in.TuplesShared(rel) {
			parts = append(parts, rel+t.String())
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// String renders the instance as a sorted list of facts.
func (in *Instance) String() string {
	var parts []string
	for _, rel := range in.Relations() {
		for _, t := range in.TuplesShared(rel) {
			parts = append(parts, rel+t.String())
		}
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Atoms returns every tuple of the instance as a ground atom, in
// deterministic order. This is Σ(r) in Definition 1 of the paper.
func (in *Instance) Atoms() []term.Atom {
	var out []term.Atom
	for _, rel := range in.Relations() {
		for _, t := range in.TuplesShared(rel) {
			args := make([]term.Term, len(t))
			for i, v := range t {
				args[i] = term.C(v)
			}
			out = append(out, term.Atom{Pred: rel, Args: args})
		}
	}
	return out
}

// ActiveDomain returns the sorted set of constants occurring in the
// instance.
func (in *Instance) ActiveDomain() []string {
	seen := make(map[symtab.Sym]bool)
	for _, r := range in.rels {
		r.live.ForEach(func(row uint32) {
			for _, id := range r.rowIDs(int(row)) {
				seen[id] = true
			}
		})
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, in.tab.Name(id))
	}
	sort.Strings(out)
	return out
}

// Fact is a (relation, tuple) pair, used to describe instance deltas.
type Fact struct {
	Rel   string
	Tuple Tuple
}

// String renders the fact as rel(a,b).
func (f Fact) String() string { return f.Rel + f.Tuple.String() }

// Key returns the canonical key for the fact.
func (f Fact) Key() string { return f.Rel + "\x1e" + f.Tuple.Key() }

// IDKey returns an unambiguous canonical key for the fact: the
// relation, the tuple's arity and the joined values. Unlike Key, an
// arity-0 fact and an arity-1 fact with an empty-string value encode
// differently, so the repair engine can invert the encoding faithfully
// (ParseFactIDKey) when it materializes composed repairs from interned
// fact-id deltas.
func (f Fact) IDKey() string {
	return f.Rel + "\x1e" + strconv.Itoa(len(f.Tuple)) + "\x1e" + f.Tuple.Key()
}

// ParseFactIDKey inverts Fact.IDKey. The separators (\x1e, \x1f) cannot
// occur in constants produced by the parsers, so the round-trip is
// exact.
func ParseFactIDKey(key string) Fact {
	rel, rest, _ := strings.Cut(key, "\x1e")
	arityStr, vals, _ := strings.Cut(rest, "\x1e")
	arity, _ := strconv.Atoi(arityStr)
	if arity <= 0 {
		return Fact{Rel: rel, Tuple: Tuple{}}
	}
	return Fact{Rel: rel, Tuple: Tuple(strings.SplitN(vals, "\x1f", arity))}
}

// SymDiff computes the symmetric difference Δ(r1,r2) of Definition 1:
// the facts in r1 but not r2, and the facts in r2 but not r1. When both
// instances share a symbol table (the normal case: repair candidates
// are clones of the original) membership tests compare packed rows
// directly.
func SymDiff(r1, r2 *Instance) []Fact {
	var out []Fact
	sameTab := r1.tab == r2.tab
	diff := func(a, b *Instance) {
		for rel, r := range a.rels {
			br := b.rels[rel]
			r.live.ForEach(func(row uint32) {
				ids := r.rowIDs(int(row))
				present := false
				if sameTab {
					if br != nil {
						brow := br.findRow(ids)
						present = brow >= 0 && br.live.Has(uint32(brow))
					}
				} else {
					present = b.Has(rel, a.strings(ids))
				}
				if !present {
					out = append(out, Fact{rel, a.strings(ids)})
				}
			})
		}
	}
	diff(r1, r2)
	diff(r2, r1)
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// DeltaKeySet converts a delta into a set of fact keys, for ⊆ tests.
func DeltaKeySet(delta []Fact) map[string]bool {
	s := make(map[string]bool, len(delta))
	for _, f := range delta {
		s[f.Key()] = true
	}
	return s
}

// SubsetOf reports whether delta a is a subset of delta b (as fact
// sets). Used for the ≤r minimality order of Definition 1(b).
func SubsetOf(a, b map[string]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// DeltaIDs interns the fact keys of a delta into tab and returns them
// as a sorted id set: the interned form of DeltaKeySet, compared with
// SubsetOfIDs merge walks instead of map probes. The LP minimality
// filter keys its deltas this way; the repair search goes one step
// further and stores them as bitset.Set over the same interned ids.
func DeltaIDs(tab *symtab.Table, delta []Fact) []symtab.Sym {
	ids := make([]symtab.Sym, len(delta))
	for i, f := range delta {
		ids[i] = tab.Intern(f.Key())
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// SubsetOfIDs reports a ⊆ b for sorted id sets via a single merge
// walk.
func SubsetOfIDs(a, b []symtab.Sym) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// PackIDKey renders a sorted id set as a compact map key (4 bytes per
// id).
func PackIDKey(ids []symtab.Sym) string {
	return string(packIDs(nil, ids))
}
