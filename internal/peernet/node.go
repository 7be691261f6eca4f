package peernet

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/parallel"
	"repro/internal/program"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/slice"
	"repro/internal/sysdsl"
)

// Node hosts one peer at a network address: it serves the peer's data
// and specification to others and gathers its neighbours' data to
// answer queries with peer-consistent semantics.
//
// A Node is safe for concurrent use: the neighbour table is guarded by
// an internal lock (use SetNeighbor / NeighborAddr, not direct map
// writes, once the node is shared between goroutines), and the
// spec/relation caches are internally synchronized.
type Node struct {
	Peer *core.Peer
	Addr string
	// Neighbors maps peer ids to addresses. It is guarded by mu;
	// concurrent mutation must go through SetNeighbor.
	Neighbors map[core.PeerID]string
	// CacheTTL, when positive, caches fetched peer specifications and
	// relations for that duration: repeated queries inside the window
	// skip the network fan-out entirely. SetNeighbor invalidates the
	// changed peer's entries. Zero (the default) disables caching —
	// every query sees the neighbours' live data, the seed behaviour.
	CacheTTL time.Duration
	// Parallelism bounds the concurrent neighbour fetches of the
	// snapshot walks and is forwarded to the answering engines
	// (core.SolveOptions / program.RunOptions). 0 means GOMAXPROCS; 1
	// restores the fully sequential seed behaviour. Set before Start. The serving plane
	// overrides it per query via QueryOptions.Parallelism.
	Parallelism int
	// NoCoalesce disables in-flight request coalescing in AnswerQuery:
	// identical concurrent queries then each run the solver. Coalescing
	// shares only results computed under the same content-addressed key
	// (identical answers by construction), so this is an A/B measurement
	// knob, not a semantics switch. Set before the node is shared.
	NoCoalesce bool
	// NoIncremental disables delta-driven incremental re-answering
	// (incr.go): repeated queries after local writes then always evict
	// and recompute from a fresh snapshot. The incremental path is only
	// taken when provably exact, so this is an A/B measurement knob,
	// not a semantics switch. Set before the node is shared.
	NoIncremental bool

	mu   sync.RWMutex // guards Neighbors, Addr and stop
	tr   Transport
	stop func()

	// dataMu serializes mutations of the live peer instance against the
	// readers: request handling and snapshot cloning take the read
	// side, UpdateLocal takes the write side. Mutating n.Peer directly
	// while the node is serving is a data race — the instance's read
	// caches are only safe under concurrent *reads*.
	dataMu sync.RWMutex

	// delegated/delegFallbacks count DelegatedAnswers outcomes;
	// lastFallback (under mu) records the most recent fallback reason.
	delegated      int64
	delegFallbacks int64
	lastFallback   string

	cacheMu sync.Mutex
	// relGens advances per peer, so relation and spec cache entries of
	// unrelated peers survive a neighbour update (relation-granular
	// invalidation).
	relGens   map[core.PeerID]uint64
	relCache  map[string]*relEntry
	specCache map[core.PeerID]*specEntry

	// answers is the slice-keyed PCA cache of PeerConsistentAnswersFor:
	// entries are content-addressed by (query, vars, slice signature,
	// data fingerprint), so they need no invalidation — an update to an
	// irrelevant relation leaves the key untouched and the entry valid.
	answers *slice.AnswerCache

	// flights coalesces concurrent AnswerQuery computations under the
	// same content-addressed answer key (singleflight). The delegated
	// OpPCA handler shares it under "deleg"-prefixed keys, so a burst
	// of identical delegated sub-queries from several querying roots
	// runs the delegate-side solve once.
	flights slice.Flight

	// incrSeries holds the live incremental re-answering series, one
	// per repeated direct query shape (incr.go); the counters feed
	// IncrStats.
	incrMu     sync.Mutex
	incrSeries map[string]*incrSeries

	incrPatched, incrSeeds, incrFallbacks int64

	// Serving-plane instrumentation (atomics): TTL cache outcomes,
	// solver invocations and local writes. Read via CacheStats /
	// SolverRuns / LocalWrites.
	specHits, specMisses int64
	relHits, relMisses   int64
	solverRuns           int64
	localWrites          int64

	// repairStats accumulates repair-engine counters (conflict
	// component counts) across the direct-semantics queries this node
	// answers; the LP path of transitive queries has no repair search.
	repairStats repair.Stats

	clock func() time.Time // test hook; nil means time.Now
}

type relEntry struct {
	tuples  []relation.Tuple
	expires time.Time
}

type specEntry struct {
	spec      string
	neighbors map[string]string
	expires   time.Time
}

// NewNode creates a node for a peer on the given transport. neighbours
// maps the peers named in the local DECs/trust to their addresses.
//
// The peer's instance gets a fact journal attached (if it has none)
// so the incremental re-answering path can replay write deltas; a
// second node built over the same peer reuses the existing journal.
func NewNode(peer *core.Peer, tr Transport, neighbors map[core.PeerID]string) *Node {
	ns := make(map[core.PeerID]string, len(neighbors))
	for k, v := range neighbors {
		ns[k] = v
	}
	if peer.Inst != nil && peer.Inst.Journal() == nil {
		peer.Inst.SetJournal(relation.NewJournal(0))
	}
	return &Node{Peer: peer, Neighbors: ns, tr: tr}
}

// Start begins serving at the requested address ("" or ":0" picks one)
// and records the bound address in n.Addr (read it via BoundAddr when
// other goroutines may be starting/stopping the node).
func (n *Node) Start(addr string) error {
	bound, closer, err := n.tr.Listen(addr, n.handle)
	if err != nil {
		return err
	}
	n.mu.Lock()
	if n.stop != nil {
		n.mu.Unlock()
		closer()
		return fmt.Errorf("peernet: node %s already started", n.Peer.ID)
	}
	n.Addr = bound
	n.stop = closer
	n.mu.Unlock()
	return nil
}

// BoundAddr returns the address Start bound, under the lock.
func (n *Node) BoundAddr() string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.Addr
}

// Stop stops serving. It is safe to call twice and concurrently; only
// one caller performs the shutdown.
func (n *Node) Stop() {
	n.mu.Lock()
	stop := n.stop
	n.stop = nil
	n.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// UpdateLocal runs a mutation of the node's live peer (Fact inserts,
// instance deletes, ...) under the node's data lock, serializing it
// against concurrent request handling and snapshot cloning. Route every
// write to a served peer's instance through here; mutating n.Peer
// directly while the node is serving is a data race.
//
// A local write is visible to the very next query: every snapshot
// clones the live peer rather than caching it, and the per-peer
// relation generation advances under the data lock, guarding any
// caller that cached this peer's relations on this node.
func (n *Node) UpdateLocal(fn func(p *core.Peer)) {
	n.dataMu.Lock()
	defer n.dataMu.Unlock()
	fn(n.Peer)
	if n.Peer.Inst != nil && n.Peer.Inst.Journal() == nil {
		// fn replaced the instance wholesale: attach a fresh journal.
		// Live series detect the new journal object and fall back.
		n.Peer.Inst.SetJournal(relation.NewJournal(0))
	}
	n.cacheMu.Lock()
	if n.relGens == nil {
		n.relGens = make(map[core.PeerID]uint64)
	}
	n.relGens[n.Peer.ID]++
	n.cacheMu.Unlock()
	atomic.AddInt64(&n.localWrites, 1)
}

// localClone snapshots the live peer under the data lock: the returned
// clone shares nothing mutable with the live instance, so snapshots and
// exports built from it cannot race concurrent UpdateLocal writes (and
// a TTL-cached snapshot can no longer change under its fingerprint).
func (n *Node) localClone() *core.Peer {
	n.dataMu.RLock()
	defer n.dataMu.RUnlock()
	return n.Peer.Clone()
}

// SetNeighbor records (or updates) a neighbour address and evicts the
// changed peer's relation and spec cache entries. Entries of unrelated
// peers survive, so a neighbour update does not force refetching the
// rest of the overlay.
func (n *Node) SetNeighbor(id core.PeerID, addr string) {
	n.mu.Lock()
	n.Neighbors[id] = addr
	n.mu.Unlock()
	n.cacheMu.Lock()
	if n.relGens == nil {
		n.relGens = make(map[core.PeerID]uint64)
	}
	n.relGens[id]++
	prefix := string(id) + "\x00"
	for key := range n.relCache {
		if strings.HasPrefix(key, prefix) {
			delete(n.relCache, key)
		}
	}
	delete(n.specCache, id)
	n.cacheMu.Unlock()
}

// NeighborAddr looks up a neighbour address under the lock.
func (n *Node) NeighborAddr(id core.PeerID) (string, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	addr, ok := n.Neighbors[id]
	return addr, ok
}

// neighborsCopy snapshots the neighbour table under the lock.
func (n *Node) neighborsCopy() map[core.PeerID]string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make(map[core.PeerID]string, len(n.Neighbors))
	for k, v := range n.Neighbors {
		out[k] = v
	}
	return out
}

func (n *Node) now() time.Time {
	if n.clock != nil {
		return n.clock()
	}
	return time.Now()
}

func errResp(err error) Response { return Response{Err: err.Error()} }

func (n *Node) handle(req Request) Response {
	switch req.Op {
	case OpFetchBatch:
		// The schema check sits under the same lock as the tuple read, so
		// a concurrent Declare+Fact write is either fully visible or not
		// at all.
		rt := make(map[string][][]string, len(req.Rels))
		n.dataMu.RLock()
		for _, rel := range req.Rels {
			if !n.Peer.Schema.Has(rel) {
				n.dataMu.RUnlock()
				return errResp(fmt.Errorf("peer %s has no relation %s", n.Peer.ID, rel))
			}
			rt[rel] = tupleStrings(n.Peer.Inst.Tuples(rel))
		}
		n.dataMu.RUnlock()
		return Response{RelTuples: rt}
	case OpExportSpec:
		frag := core.NewSystem()
		if err := frag.AddPeer(n.localClone()); err != nil {
			return errResp(err)
		}
		ns := n.neighborsCopy()
		neigh := make(map[string]string, len(ns))
		for id, addr := range ns {
			neigh[string(id)] = addr
		}
		return Response{Spec: sysdsl.FormatSpec(frag), Neighbors: neigh}
	case OpPCA:
		f, err := foquery.Parse(req.Query)
		if err != nil {
			return errResp(err)
		}
		var ans []relation.Tuple
		if req.Delegate {
			// Coalesce identical delegated sub-queries: a burst of
			// querying roots delegating the same atomic sub-query runs
			// the delegate-side solve once and shares the answers. The
			// key ignores the hop budget and visited path — every
			// delegatedAnswers outcome is byte-identical to the
			// centralized sliced path for the same (query, vars,
			// transitive), so followers get exactly what their own run
			// would have computed. No deadlock: a leader only waits on
			// delegates whose visited path strictly grows, and a peer
			// already on the path is answered by fallback, not by a
			// recursive flight on this node.
			run := func() ([]relation.Tuple, error) {
				a, _, derr := n.delegatedAnswers(f, req.Vars, req.Transitive,
					req.HopBudget, appendVisited(req.Visited, n.Peer.ID))
				return a, derr
			}
			if n.NoCoalesce {
				ans, err = run()
			} else {
				dkey := strings.Join([]string{"deleg", req.Query,
					strings.Join(req.Vars, ","), fmt.Sprint(req.Transitive)}, "\x00")
				ans, _, err = n.flights.Do(dkey, run)
			}
		} else {
			ans, err = n.PeerConsistentAnswersFor(f, req.Vars, req.Transitive)
		}
		if err != nil {
			return errResp(err)
		}
		return Response{Tuples: tupleStrings(ans)}
	}
	return errResp(fmt.Errorf("unknown op %q", req.Op))
}

// tupleStrings renders tuples in the wire form, always non-nil: the
// wire contract pins "declared but empty" to an empty slice on the
// serving side (gob still drops zero-length slices, so clients
// additionally treat a missing field as empty).
func tupleStrings(ts []relation.Tuple) [][]string {
	out := make([][]string, 0, len(ts))
	for _, t := range ts {
		out = append(out, []string(t))
	}
	return out
}

// appendVisited returns visited + id without aliasing the input (the
// handler fans out to several neighbours from one request slice).
func appendVisited(visited []string, id core.PeerID) []string {
	out := make([]string, 0, len(visited)+1)
	out = append(out, visited...)
	return append(out, string(id))
}

// specFragment is one fetched spec export: the sysdsl fragment plus
// the peer's neighbour addresses.
type specFragment struct {
	spec      string
	neighbors map[string]string
}

// specSnapshot is the specification walk of every snapshot: the root's
// clone plus the OpExportSpec fragments (no data) of its neighbours.
// Starting from the DEC neighbours, each BFS level is fetched
// concurrently (fetchSpec) and merged sequentially in level order, so
// the assembled system (and any error) is deterministic. In the direct
// case only immediate neighbours are fetched and their own DECs/trust
// are dropped (Definition 4 is a local notion); in the transitive case
// the whole reachable overlay is walked with specifications intact
// (Section 4.3). It returns the validated system and every address
// discovered along the way, so the caller can fetch relations of
// transitively reachable peers that are not in the local neighbour
// table.
func (n *Node) specSnapshot(transitive bool) (*core.System, map[core.PeerID]string, error) {
	sys := core.NewSystem()
	// The snapshot gets a clone of the live peer, not the peer itself:
	// a snapshot shared by in-flight queries must not alias an instance
	// a concurrent local write can mutate.
	if err := sys.AddPeer(n.localClone()); err != nil {
		return nil, nil, err
	}
	fetched := map[core.PeerID]bool{n.Peer.ID: true}
	addrs := n.neighborsCopy()
	frontier := n.neighborIDs()
	for len(frontier) > 0 {
		// Deduplicate the level, dropping peers already fetched.
		var level []core.PeerID
		queued := map[core.PeerID]bool{}
		for _, id := range frontier {
			if !fetched[id] && !queued[id] {
				queued[id] = true
				level = append(level, id)
			}
		}
		frontier = frontier[:0]
		if len(level) == 0 {
			break
		}
		// Fetch the whole level concurrently; merge sequentially in
		// level order so the assembled system (and any error) is
		// deterministic.
		frags, err := parallel.MapErr(len(level), parallel.Workers(n.Parallelism), func(i int) (specFragment, error) {
			addr, ok := addrs[level[i]]
			if !ok {
				return specFragment{}, fmt.Errorf("peernet: no address known for peer %s", level[i])
			}
			spec, neigh, err := n.fetchSpec(level[i], addr)
			return specFragment{spec: spec, neighbors: neigh}, err
		})
		if err != nil {
			return nil, nil, err
		}
		for i, id := range level {
			remote, err := sysdsl.ParsePartial(frags[i].spec)
			if err != nil {
				return nil, nil, fmt.Errorf("peernet: bad spec from %s: %w", id, err)
			}
			for _, rid := range remote.Peers() {
				rp, _ := remote.Peer(rid)
				if rid != id {
					return nil, nil, fmt.Errorf("peernet: peer %s exported a fragment for %s", id, rid)
				}
				if !transitive {
					// Direct case: the neighbour contributes data only
					// (Definition 4 is a local notion).
					rp.DECs = make(map[core.PeerID][]*constraint.Dependency)
					rp.Trust = make(map[core.PeerID]core.TrustLevel)
				}
				if err := sys.AddPeer(rp); err != nil {
					return nil, nil, err
				}
			}
			fetched[id] = true
			if transitive {
				for _, rid := range sortedNeighborIDs(frags[i].neighbors) {
					pid := core.PeerID(rid)
					if _, known := addrs[pid]; !known {
						addrs[pid] = frags[i].neighbors[rid]
					}
					if !fetched[pid] {
						frontier = append(frontier, pid)
					}
				}
			}
		}
	}
	if err := sys.Validate(); err != nil {
		return nil, nil, err
	}
	return sys, addrs, nil
}

func sortedNeighborIDs(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (n *Node) neighborIDs() []core.PeerID {
	var out []core.PeerID
	for id := range n.Peer.DECs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PeerConsistentAnswers answers a query posed to this peer with
// Definition 5 semantics over a full Snapshot: the unsliced reference
// that PeerConsistentAnswersFor is checked against. With
// transitive=true the combined-program semantics of Section 4.3 is
// used. The node's Parallelism is forwarded to the answering engine.
func (n *Node) PeerConsistentAnswers(q foquery.Formula, vars []string, transitive bool) ([]relation.Tuple, error) {
	sys, err := n.Snapshot(transitive)
	if err != nil {
		return nil, err
	}
	if transitive {
		return program.PeerConsistentAnswersViaLP(sys, n.Peer.ID, q, vars,
			program.RunOptions{Transitive: true, Parallelism: n.Parallelism})
	}
	return core.PeerConsistentAnswers(sys, n.Peer.ID, q, vars,
		core.SolveOptions{Parallelism: n.Parallelism})
}

// fetchSpec retrieves a peer's specification (schema, DECs, trust — no
// facts) and its neighbour addresses, serving from the TTL spec cache
// when enabled. Spec entries share the per-peer generation of the
// relation cache, so SetNeighbor for one peer evicts only that peer's
// spec.
func (n *Node) fetchSpec(id core.PeerID, addr string) (string, map[string]string, error) {
	var gen uint64
	if n.CacheTTL > 0 {
		n.cacheMu.Lock()
		gen = n.relGens[id]
		if e, ok := n.specCache[id]; ok && n.now().Before(e.expires) {
			spec, neigh := e.spec, e.neighbors
			n.cacheMu.Unlock()
			atomic.AddInt64(&n.specHits, 1)
			return spec, neigh, nil
		}
		n.cacheMu.Unlock()
		atomic.AddInt64(&n.specMisses, 1)
	}
	resp, err := n.tr.Call(addr, Request{Op: OpExportSpec})
	if err != nil {
		return "", nil, err
	}
	if resp.Err != "" {
		return "", nil, fmt.Errorf("peernet: export spec from %s: %s", id, resp.Err)
	}
	if n.CacheTTL > 0 {
		n.cacheMu.Lock()
		if n.relGens[id] == gen {
			if n.specCache == nil {
				n.specCache = make(map[core.PeerID]*specEntry)
			}
			n.specCache[id] = &specEntry{spec: resp.Spec, neighbors: resp.Neighbors, expires: n.now().Add(n.CacheTTL)}
		}
		n.cacheMu.Unlock()
	}
	return resp.Spec, resp.Neighbors, nil
}

// SnapshotFor assembles the query-relevance-sliced counterpart of
// Snapshot: specifications are fetched first (OpExportSpec, one
// round-trip per peer, no data), the relevance slice of the query is
// computed over them, and then only the relations in the slice travel —
// one batched OpFetchBatch round-trip per relevant peer, served from
// the relation-granular TTL cache when enabled. Peers owning no
// relevant relation contribute their schema and constraints but move no
// tuples at all. The returned system carries complete data for every
// relation in the slice, so any engine restricted by the slice
// (core.SolveOptions.KeepDep/RelevantRels, program counterparts)
// answers exactly as over a full Snapshot.
func (n *Node) SnapshotFor(q foquery.Formula, transitive bool) (*core.System, *slice.Slice, error) {
	sys, addrs, err := n.specSnapshot(transitive)
	if err != nil {
		return nil, nil, err
	}
	sl, err := slice.ForQuery(sys, n.Peer.ID, q, transitive)
	if err != nil {
		return nil, nil, err
	}
	if err := n.fetchInto(sys, addrs, sl.RemotePeers(), sl.RelsOf); err != nil {
		return nil, nil, err
	}
	return sys, sl, nil
}

// Snapshot assembles a core.System from this peer and its (transitively
// reachable, if requested) neighbours with complete data: the Full-data
// case of SnapshotFor. It walks the specifications (specSnapshot) and
// then fetches every relation of every remote peer, one OpFetchBatch
// round-trip per peer owning relations. In the direct case only
// immediate neighbours are fetched and their own DECs/trust are dropped
// (Definition 4 is a local notion); in the transitive case the whole
// reachable overlay is fetched with specifications intact (Section
// 4.3). With CacheTTL > 0 both rounds are served from the spec and
// relation caches that SnapshotFor shares.
func (n *Node) Snapshot(transitive bool) (*core.System, error) {
	sys, addrs, err := n.specSnapshot(transitive)
	if err != nil {
		return nil, err
	}
	peers := sys.Peers()
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	remote := peers[:0]
	for _, id := range peers {
		if id != n.Peer.ID {
			remote = append(remote, id)
		}
	}
	relsOf := func(id core.PeerID) []string {
		p, _ := sys.Peer(id)
		return p.Schema.Relations()
	}
	if err := n.fetchInto(sys, addrs, remote, relsOf); err != nil {
		return nil, err
	}
	return sys, nil
}

// fetchInto fetches relsOf(p) of every remote peer p of a spec
// snapshot — concurrently, one OpFetchBatch round-trip per peer with
// relations, through the TTL relation cache — and inserts the tuples
// into the peer's snapshot instance. peers must be sorted: the merge
// runs sequentially in that order, so the system is deterministic.
func (n *Node) fetchInto(sys *core.System, addrs map[core.PeerID]string, peers []core.PeerID, relsOf func(core.PeerID) []string) error {
	results, err := parallel.MapErr(len(peers), parallel.Workers(n.Parallelism), func(i int) (map[string][]relation.Tuple, error) {
		pid := peers[i]
		addr, ok := addrs[pid]
		if !ok {
			return nil, fmt.Errorf("peernet: no address known for peer %s", pid)
		}
		return n.fetchRelationsAddr(pid, addr, relsOf(pid))
	})
	if err != nil {
		return err
	}
	for i, pid := range peers {
		rp, _ := sys.Peer(pid)
		for _, rel := range relsOf(pid) {
			for _, t := range results[i][rel] {
				rp.Inst.Insert(rel, t)
			}
		}
	}
	return nil
}

// QueryOptions tunes one query answered through AnswerQuery — the
// serving plane's per-query knobs.
type QueryOptions struct {
	// Transitive selects the Section 4.3 combined-program semantics;
	// false is the direct Definition 5 semantics.
	Transitive bool
	// Parallelism budgets this query's engine and fan-out work,
	// overriding the node-wide default: the serving plane divides the
	// node's budget across its admitted queries so one expensive repair
	// cannot claim every core. 0 inherits Node.Parallelism.
	Parallelism int
}

// PeerConsistentAnswersFor is the sliced counterpart of
// PeerConsistentAnswers: the snapshot fetches only query-relevant
// relations (SnapshotFor), the engines enforce only the constraints in
// the slice, and the answers are cached under a (query, vars, slice
// signature, data fingerprint) key. The key is content-addressed, so a
// repeat query over unchanged relevant data is served without any
// grounding or repair search — and an update to an irrelevant relation
// does not evict it. Answers are identical to PeerConsistentAnswers.
func (n *Node) PeerConsistentAnswersFor(q foquery.Formula, vars []string, transitive bool) ([]relation.Tuple, error) {
	return n.AnswerQuery(q, vars, QueryOptions{Transitive: transitive})
}

// AnswerQuery is PeerConsistentAnswersFor with per-query options, and
// the entry point of the serving plane. On top of the content-addressed
// answer cache it coalesces in-flight work: concurrent queries that
// miss the cache under the same key join a single solver run
// (singleflight) instead of repeating it — safe because the key embeds
// the data fingerprint, so coalesced requests provably compute the same
// answers. Every caller owns its returned tuples.
func (n *Node) AnswerQuery(q foquery.Formula, vars []string, opt QueryOptions) ([]relation.Tuple, error) {
	par := opt.Parallelism
	if par == 0 {
		par = n.Parallelism
	}
	incr := !opt.Transitive && !n.NoIncremental
	if incr {
		if ans, err, handled := n.incrAnswer(q, vars, par); handled {
			return ans, err
		}
	}
	// Pre-snapshot journal position and relation generations: if both
	// are unchanged once the answer is in hand, the snapshot provably
	// corresponds to this journal position and an incremental series
	// can be seeded from it (seedSeries re-checks).
	var seedJ *relation.Journal
	var seedSeq uint64
	var seedGens map[core.PeerID]uint64
	if incr && n.CacheTTL > 0 {
		n.dataMu.RLock()
		seedJ = n.Peer.Inst.Journal()
		n.dataMu.RUnlock()
		if seedJ != nil {
			seedSeq = seedJ.Seq()
		}
		n.cacheMu.Lock()
		seedGens = make(map[core.PeerID]uint64, len(n.relGens))
		for k, v := range n.relGens {
			seedGens[k] = v
		}
		n.cacheMu.Unlock()
	}
	sys, sl, err := n.SnapshotFor(q, opt.Transitive)
	if err != nil {
		return nil, err
	}
	fp, err := slice.DataFingerprint(sys, sl)
	if err != nil {
		return nil, err
	}
	key := slice.AnswerKey(q.String(), vars, sl, fp)
	cache := n.answersCache()
	if ans, ok := cache.Get(key); ok {
		if incr {
			n.seedSeries(q, vars, sys, sl, key, seedJ, seedSeq, seedGens)
		}
		return ans, nil
	}
	compute := func() ([]relation.Tuple, error) {
		atomic.AddInt64(&n.solverRuns, 1)
		if opt.Transitive {
			return program.PeerConsistentAnswersViaLP(sys, n.Peer.ID, q, vars, program.RunOptions{
				Transitive:   true,
				Parallelism:  par,
				KeepDep:      sl.KeepDep,
				RelevantRels: sl.RelevantRels(),
			})
		}
		return core.PeerConsistentAnswers(sys, n.Peer.ID, q, vars, core.SolveOptions{
			Parallelism:  par,
			KeepDep:      sl.KeepDep,
			RelevantRels: sl.RelevantRels(),
			RepairStats:  &n.repairStats,
		})
	}
	var ans []relation.Tuple
	shared := false
	if n.NoCoalesce {
		ans, err = compute()
	} else {
		ans, shared, err = n.flights.Do(key, compute)
	}
	if err != nil {
		return nil, err
	}
	if !shared {
		// Only the computing caller stores: the followers' shared result
		// is the same entry, and their snapshots may already be stale.
		cache.Put(key, ans)
	}
	if incr {
		n.seedSeries(q, vars, sys, sl, key, seedJ, seedSeq, seedGens)
	}
	return ans, nil
}

// DefaultHopBudget bounds the delegation depth of DelegatedAnswers:
// each delegated hop decrements the budget, and a peer receiving 0
// answers centrally. Deep overlays beyond the budget still answer
// correctly — the tail is just computed centrally by the last delegate.
const DefaultHopBudget = 8

// DelegationInfo reports how DelegatedAnswers answered one query.
type DelegationInfo struct {
	// Delegated is true when the delegated plan ran to completion;
	// false means the centralized sliced path answered (Reason says
	// why).
	Delegated bool
	Reason    string
	// Delegates and Fetches are the plan's peers (empty on fallback).
	Delegates []core.PeerID
	Fetches   []core.PeerID
	// RemoteCalls counts the plan's round trips; SubTuples the tuples
	// the delegates and fetches returned.
	RemoteCalls int
	SubTuples   int
}

// DelegatedAnswers answers a query posed to this peer with the same
// peer-consistent semantics as PeerConsistentAnswers(For), but through
// delegated distributed execution when that is provably exact: the
// query's relevance slice is decomposed per owning peer
// (slice.PlanDelegation), each repairing neighbour computes its own
// peer consistent answers to atomic sub-queries over OpPCA (recursively
// delegating in turn, within the hop budget), DEC-less data peers ship
// raw relations, and the node solves the composed mini system
// (core.ComposeDelegated) locally. The querying peer then receives
// answer sets instead of raw upstream data, and the repair work runs
// where the data lives.
//
// Whenever the plan is refused (direct semantics, domain-dependent
// slice, joint same-trust repair, non-forced remote constraints), a
// remote call fails, a delegate is already on the delegation path
// (cyclic overlay) or the composed solve errors, the node falls back to
// the centralized sliced path — so answers and errors are byte-identical
// to PeerConsistentAnswersFor in every case.
func (n *Node) DelegatedAnswers(q foquery.Formula, vars []string, transitive bool) ([]relation.Tuple, error) {
	ans, _, err := n.delegatedAnswers(q, vars, transitive, DefaultHopBudget, []string{string(n.Peer.ID)})
	return ans, err
}

// DelegatedAnswersInfo is DelegatedAnswers with the delegation report.
func (n *Node) DelegatedAnswersInfo(q foquery.Formula, vars []string, transitive bool) ([]relation.Tuple, DelegationInfo, error) {
	return n.delegatedAnswers(q, vars, transitive, DefaultHopBudget, []string{string(n.Peer.ID)})
}

// DelegationStats reports how many DelegatedAnswers calls ran the
// delegated plan vs fell back to the centralized path, and the most
// recent fallback reason.
func (n *Node) DelegationStats() (delegated, fallbacks int64, lastFallback string) {
	n.mu.RLock()
	last := n.lastFallback
	n.mu.RUnlock()
	return atomic.LoadInt64(&n.delegated), atomic.LoadInt64(&n.delegFallbacks), last
}

// delegatedAnswers implements DelegatedAnswers; budget and visited are
// the cycle guards threaded through OpPCA requests.
func (n *Node) delegatedAnswers(q foquery.Formula, vars []string, transitive bool, budget int, visited []string) ([]relation.Tuple, DelegationInfo, error) {
	fallback := func(reason string) ([]relation.Tuple, DelegationInfo, error) {
		atomic.AddInt64(&n.delegFallbacks, 1)
		n.mu.Lock()
		n.lastFallback = reason
		n.mu.Unlock()
		ans, err := n.PeerConsistentAnswersFor(q, vars, transitive)
		return ans, DelegationInfo{Reason: reason}, err
	}
	if !transitive {
		return fallback("direct semantics reads neighbour data raw (nothing to delegate)")
	}
	if budget <= 0 {
		return fallback("delegation hop budget exhausted")
	}
	sys, addrs, err := n.specSnapshot(true)
	if err != nil {
		return fallback(fmt.Sprintf("spec snapshot failed: %v", err))
	}
	sl, err := slice.ForQuery(sys, n.Peer.ID, q, true)
	if err != nil {
		return fallback(fmt.Sprintf("slice computation failed: %v", err))
	}
	plan, reason := slice.PlanDelegation(sys, n.Peer.ID, sl)
	if plan == nil {
		return fallback(reason)
	}
	onPath := make(map[string]bool, len(visited))
	for _, id := range visited {
		onPath[id] = true
	}
	for _, d := range plan.Delegates {
		if onPath[string(d)] {
			return fallback(fmt.Sprintf("peer %s is already on the delegation path (cyclic overlay)", d))
		}
	}

	// Fan the plan out: one worker per planned peer, delegates first.
	// Results merge in plan order, so the composed system (and any
	// error, MapErr reports the first in index order) is deterministic.
	type kindOf struct {
		id       core.PeerID
		delegate bool
	}
	work := make([]kindOf, 0, len(plan.Delegates)+len(plan.Fetches))
	for _, d := range plan.Delegates {
		work = append(work, kindOf{d, true})
	}
	for _, f := range plan.Fetches {
		work = append(work, kindOf{f, false})
	}
	results, err := parallel.MapErr(len(work), parallel.Workers(n.Parallelism), func(i int) (map[string][]relation.Tuple, error) {
		w := work[i]
		addr, ok := addrs[w.id]
		if !ok {
			return nil, fmt.Errorf("peernet: no address known for peer %s", w.id)
		}
		if !w.delegate {
			return n.fetchRelationsAddr(w.id, addr, plan.Rels[w.id])
		}
		sp, _ := sys.Peer(w.id)
		out := make(map[string][]relation.Tuple, len(plan.Rels[w.id]))
		for _, rel := range plan.Rels[w.id] {
			decl, ok := sp.Schema.Decl(rel)
			if !ok {
				return nil, fmt.Errorf("peernet: peer %s does not declare %s", w.id, rel)
			}
			sub, subVars := foquery.AtomQuery(rel, decl.Arity)
			resp, err := n.tr.Call(addr, Request{
				Op: OpPCA, Query: sub.String(), Vars: subVars, Transitive: true,
				Delegate: true, HopBudget: budget - 1, Visited: visited,
			})
			if err != nil {
				return nil, err
			}
			if resp.Err != "" {
				return nil, fmt.Errorf("peernet: delegated answers for %s from %s: %s", rel, w.id, resp.Err)
			}
			tuples := make([]relation.Tuple, 0, len(resp.Tuples))
			for _, t := range resp.Tuples {
				tuples = append(tuples, relation.Tuple(t))
			}
			out[rel] = tuples
		}
		return out, nil
	})
	if err != nil {
		return fallback(fmt.Sprintf("remote call failed: %v", err))
	}

	// Compose the mini system: the root clone plus one constraint-free
	// stub per planned peer holding the returned answer sets.
	stubs := make([]core.DelegatedPeer, 0, len(work)+len(plan.Stubs))
	subTuples := 0
	for i, w := range work {
		sp, _ := sys.Peer(w.id)
		stubs = append(stubs, core.DelegatedPeer{ID: w.id, Schema: sp.Schema, Rels: results[i]})
		for _, ts := range results[i] {
			subTuples += len(ts)
		}
	}
	for _, id := range plan.Stubs {
		sp, _ := sys.Peer(id)
		stubs = append(stubs, core.DelegatedPeer{ID: id, Schema: sp.Schema})
	}
	rootClone, _ := sys.Peer(n.Peer.ID)
	mini, err := core.ComposeDelegated(rootClone, stubs)
	if err != nil {
		return fallback(fmt.Sprintf("composition failed: %v", err))
	}
	ans, err := program.PeerConsistentAnswersViaLP(mini, n.Peer.ID, q, vars,
		program.RunOptions{Transitive: true, Parallelism: n.Parallelism})
	if err != nil {
		// A failed composed solve (e.g. the root has no solutions) falls
		// back so the error is the centralized path's, byte for byte.
		return fallback(fmt.Sprintf("composed solve failed: %v", err))
	}
	atomic.AddInt64(&n.delegated, 1)
	info := DelegationInfo{
		Delegated:   true,
		Delegates:   plan.Delegates,
		Fetches:     plan.Fetches,
		RemoteCalls: plan.RemoteCalls(),
		SubTuples:   subTuples,
	}
	return ans, info, nil
}

// AnswerCacheStats reports the hit/miss counters of the slice-keyed
// answer cache used by PeerConsistentAnswersFor.
func (n *Node) AnswerCacheStats() (hits, misses int64) {
	n.cacheMu.Lock()
	c := n.answers
	n.cacheMu.Unlock()
	if c == nil {
		return 0, 0
	}
	return c.Stats()
}

// CacheStats reports the TTL cache outcomes: per-peer spec cache
// hits/misses and per-relation cache hits/misses, shared by Snapshot
// and SnapshotFor. Counters only advance when CacheTTL > 0.
func (n *Node) CacheStats() (specHits, specMisses, relHits, relMisses int64) {
	return atomic.LoadInt64(&n.specHits), atomic.LoadInt64(&n.specMisses),
		atomic.LoadInt64(&n.relHits), atomic.LoadInt64(&n.relMisses)
}

// CoalesceStats reports how many AnswerQuery computations ran (leaders)
// and how many concurrent requests were absorbed into an in-flight
// computation under the same content-addressed key (coalesced).
func (n *Node) CoalesceStats() (leaders, coalesced int64) {
	return n.flights.Stats()
}

// SolverRuns counts the answering-engine invocations of AnswerQuery —
// queries that were served neither by the answer cache nor by joining
// an in-flight computation.
func (n *Node) SolverRuns() int64 { return atomic.LoadInt64(&n.solverRuns) }

// LocalWrites counts UpdateLocal calls.
func (n *Node) LocalWrites() int64 { return atomic.LoadInt64(&n.localWrites) }

// RepairStats reports the repair-engine counters accumulated across the
// direct-semantics queries this node answered: top-level searches,
// conflict-localized engagements and total conflict components (the
// transitive LP path performs no repair search).
func (n *Node) RepairStats() (searches, localized, components int64) {
	return n.repairStats.Snapshot()
}

// FetchRelation retrieves a neighbour's relation over the network,
// serving from the TTL cache when enabled.
func (n *Node) FetchRelation(id core.PeerID, rel string) ([]relation.Tuple, error) {
	m, err := n.FetchRelations(id, []string{rel})
	if err != nil {
		return nil, err
	}
	return m[rel], nil
}

func relCacheKey(id core.PeerID, rel string) string { return string(id) + "\x00" + rel }

// FetchRelations retrieves several of a neighbour's relations in ONE
// network round-trip (OpFetchBatch), so k relations pay the link
// latency once. Relations already in the TTL cache are served locally
// and only the misses travel; the result maps each requested relation
// to its tuples (decoded from the plain-string wire form at this
// boundary).
func (n *Node) FetchRelations(id core.PeerID, rels []string) (map[string][]relation.Tuple, error) {
	addr, ok := n.NeighborAddr(id)
	if !ok {
		return nil, fmt.Errorf("peernet: no address known for peer %s", id)
	}
	return n.fetchRelationsAddr(id, addr, rels)
}

// fetchRelationsAddr is FetchRelations against an explicit address —
// the sliced snapshot walk discovers transitive peers outside the
// neighbour table and fetches their relations through here (sharing the
// same per-peer TTL cache).
func (n *Node) fetchRelationsAddr(id core.PeerID, addr string, rels []string) (map[string][]relation.Tuple, error) {
	out := make(map[string][]relation.Tuple, len(rels))
	missing := rels
	var gen uint64
	if n.CacheTTL > 0 {
		missing = nil
		n.cacheMu.Lock()
		gen = n.relGens[id]
		for _, rel := range rels {
			if e, ok := n.relCache[relCacheKey(id, rel)]; ok && n.now().Before(e.expires) {
				cp := make([]relation.Tuple, len(e.tuples))
				copy(cp, e.tuples)
				out[rel] = cp
			} else {
				missing = append(missing, rel)
			}
		}
		n.cacheMu.Unlock()
		atomic.AddInt64(&n.relHits, int64(len(rels)-len(missing)))
		atomic.AddInt64(&n.relMisses, int64(len(missing)))
	}
	if len(missing) == 0 {
		return out, nil
	}
	resp, err := n.tr.Call(addr, Request{Op: OpFetchBatch, Rels: missing})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("peernet: fetch %s from %s: %s", strings.Join(missing, ","), id, resp.Err)
	}
	for _, rel := range missing {
		raw, ok := resp.RelTuples[rel]
		if !ok {
			return nil, fmt.Errorf("peernet: peer %s returned no tuples for %s", id, rel)
		}
		tuples := make([]relation.Tuple, len(raw))
		for i, t := range raw {
			tuples[i] = relation.Tuple(t)
		}
		out[rel] = tuples
	}
	if n.CacheTTL > 0 {
		// Store the whole batch in one critical section: the results
		// arrived in one response, so they share one expiry and one
		// generation check (per peer: a SetNeighbor for another peer
		// does not discard this batch).
		n.cacheMu.Lock()
		if n.relGens[id] == gen {
			if n.relCache == nil {
				n.relCache = make(map[string]*relEntry)
			}
			expires := n.now().Add(n.CacheTTL)
			for _, rel := range missing {
				cached := make([]relation.Tuple, len(out[rel]))
				copy(cached, out[rel])
				n.relCache[relCacheKey(id, rel)] = &relEntry{tuples: cached, expires: expires}
			}
		}
		n.cacheMu.Unlock()
	}
	return out, nil
}
