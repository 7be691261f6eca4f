package peernet

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/workload"
)

// TestSlicedAnswersEqualFull: PeerConsistentAnswersFor must return
// byte-identical answers to PeerConsistentAnswers on the fixtures and
// the wide-universe workload, in both the direct and transitive cases.
func TestSlicedAnswersEqualFull(t *testing.T) {
	cases := []struct {
		name       string
		sys        *core.System
		peer       core.PeerID
		query      string
		vars       []string
		transitive bool
	}{
		{"Example1/direct", core.Example1System(), "P1", "r1(X,Y)", []string{"X", "Y"}, false},
		{"Example4/direct", core.Example4System(), "P", "r1(X,Y)", []string{"X", "Y"}, false},
		{"Example4/transitive", core.Example4System(), "P", "r1(X,Y)", []string{"X", "Y"}, true},
		{"WideUniverse/direct", workload.WideUniverse(4, 2, 5, 1, 1), "P0", "q0(X,Y)", []string{"X", "Y"}, false},
		{"Chain/transitive", workload.Chain(3, 3, 1), "P0", "t0(X,Y)", []string{"X", "Y"}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			nodes := startNetwork(t, tc.sys, NewInProc())
			n := nodes[tc.peer]
			q := foquery.MustParse(tc.query)
			want, err := n.PeerConsistentAnswers(q, tc.vars, tc.transitive)
			if err != nil {
				t.Fatal(err)
			}
			got, err := n.PeerConsistentAnswersFor(q, tc.vars, tc.transitive)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sliced answers %v != full %v", got, want)
			}
		})
	}
}

// TestSnapshotForFetchesOnlySlice: a sliced snapshot must move no
// bystander data over the wire (only spec exports and the relevant
// relations travel, in one batch from the one relevant peer), while
// still assembling a valid system containing every peer's schema.
func TestSnapshotForFetchesOnlySlice(t *testing.T) {
	sys := workload.WideUniverse(3, 2, 4, 1, 1)
	tr := &opRecordingTransport{Transport: NewInProc()}
	nodes := startNetwork(t, sys, tr)
	root := nodes["P0"]
	tr.reset()
	snap, sl, err := root.SnapshotFor(foquery.MustParse("q0(X,Y)"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := sl.RemoteRelCount(); got != 1 {
		t.Fatalf("slice moves %d remote relations, want 1 (c0): %v", got, sl.Rels)
	}
	fetched := tr.fetchedRels()
	if !reflect.DeepEqual(fetched, []string{"c0"}) {
		t.Fatalf("fetched relations %v, want [c0]", fetched)
	}
	if n := tr.count(OpFetchBatch); n != 1 {
		t.Fatalf("sliced snapshot made %d batch fetches, want 1 (PC)", n)
	}
	// The snapshot still knows every peer (schemas and constraints for
	// validation), just without bystander data.
	if len(snap.Peers()) != len(sys.Peers()) {
		t.Fatalf("snapshot has %d peers, want %d", len(snap.Peers()), len(sys.Peers()))
	}
	b0, _ := snap.Peer("B0")
	if b0.Inst.Size() != 0 {
		t.Fatalf("bystander data travelled: %d tuples", b0.Inst.Size())
	}
}

// TestAnswerCacheSurvivesIrrelevantUpdate: the slice-keyed answer cache
// is content-addressed, so an update to an irrelevant relation keeps
// serving hits while an update to a relevant relation misses and
// recomputes fresh answers.
func TestAnswerCacheSurvivesIrrelevantUpdate(t *testing.T) {
	sys := workload.WideUniverse(3, 2, 4, 0, 1)
	nodes := startNetwork(t, sys, NewInProc())
	root := nodes["P0"]
	q := foquery.MustParse("q0(X,Y)")
	vars := []string{"X", "Y"}

	first, err := root.PeerConsistentAnswersFor(q, vars, false)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := root.AnswerCacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("cold query: hits=%d misses=%d", hits, misses)
	}
	// Irrelevant update: bystander relation changes, cache still hits.
	b0, _ := sys.Peer("B0")
	b0.Fact("b0_r0", "new_key", "new_val")
	again, err := root.PeerConsistentAnswersFor(q, vars, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("answers changed after irrelevant update: %v vs %v", again, first)
	}
	if hits, _ := root.AnswerCacheStats(); hits != 1 {
		t.Fatalf("irrelevant update evicted the cached answers (hits=%d)", hits)
	}
	// Relevant update: c0 gains a tuple that must show up as a forced
	// import — the fingerprint moves, the cache misses, answers change.
	pc, _ := sys.Peer("PC")
	pc.Fact("c0", "fresh", "fresh_v")
	updated, err := root.PeerConsistentAnswersFor(q, vars, false)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(updated, first) {
		t.Fatal("relevant update did not reach the sliced answers")
	}
	found := false
	for _, tup := range updated {
		if tup.Key() == "fresh\x1ffresh_v" || (len(tup) == 2 && tup[0] == "fresh") {
			found = true
		}
	}
	if !found {
		t.Fatalf("imported tuple missing from fresh answers: %v", updated)
	}
	if _, misses := root.AnswerCacheStats(); misses != 2 {
		t.Fatalf("relevant update should have missed (misses=%d)", misses)
	}
}

// TestSetNeighborRelationGranularInvalidation: SetNeighbor for one peer
// must evict only that peer's relation/spec cache entries; unrelated
// peers' entries keep serving without network traffic.
func TestSetNeighborRelationGranularInvalidation(t *testing.T) {
	sys := core.Example1System()
	tr := &countingTransport{Transport: NewInProc()}
	nodes := startNetwork(t, sys, tr)
	p1 := nodes["P1"]
	now := time.Unix(1000, 0)
	p1.clock = func() time.Time { return now }
	p1.CacheTTL = time.Minute

	if _, err := p1.FetchRelation("P2", "r2"); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.FetchRelation("P3", "r3"); err != nil {
		t.Fatal(err)
	}
	before := tr.calls.Load()

	// Update P2: its entries go, P3's survive.
	p1.SetNeighbor("P2", nodes["P2"].Addr)
	if _, err := p1.FetchRelation("P3", "r3"); err != nil {
		t.Fatal(err)
	}
	if c := tr.calls.Load(); c != before {
		t.Fatalf("P3 cache entry was evicted by a P2 update (%d extra calls)", c-before)
	}
	if _, err := p1.FetchRelation("P2", "r2"); err != nil {
		t.Fatal(err)
	}
	if c := tr.calls.Load(); c == before {
		t.Fatal("P2 cache entry should have been evicted by the P2 update")
	}
}

// TestOpExportSpecOmitsFacts: the spec export carries schema and
// constraints but no data.
func TestOpExportSpecOmitsFacts(t *testing.T) {
	sys := core.Example1System()
	tr := NewInProc()
	nodes := startNetwork(t, sys, tr)
	resp, err := tr.Call(nodes["P1"].Addr, Request{Op: OpExportSpec})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if strings.Contains(resp.Spec, "fact ") {
		t.Fatalf("spec export leaked facts:\n%s", resp.Spec)
	}
	for _, want := range []string{"relation r1/2", "trust less P2", "dec P2:"} {
		if !strings.Contains(resp.Spec, want) {
			t.Fatalf("spec export missing %q:\n%s", want, resp.Spec)
		}
	}
}

// TestOpPCASliced checks that the wire-level PCA answers, computed
// through the sliced pipeline, match the node's unsliced
// PeerConsistentAnswers.
func TestOpPCASliced(t *testing.T) {
	sys := core.Example1System()
	tr := NewInProc()
	nodes := startNetwork(t, sys, tr)
	full, err := nodes["P1"].PeerConsistentAnswers(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, false)
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := tr.Call(nodes["P1"].Addr, Request{Op: OpPCA, Query: "r1(X,Y)", Vars: []string{"X", "Y"}})
	if err != nil {
		t.Fatal(err)
	}
	if sliced.Err != "" {
		t.Fatal(sliced.Err)
	}
	if !reflect.DeepEqual(sliced.Tuples, tupleStrings(full)) {
		t.Fatalf("sliced op answers %v != %v", sliced.Tuples, full)
	}
}

// opRecordingTransport records which ops ran and which relations were
// fetched. Calls arrive concurrently from the snapshot fan-out, so the
// recording is mutex-guarded.
type opRecordingTransport struct {
	Transport
	mu   sync.Mutex
	ops  []Op
	rels []string
}

func (t *opRecordingTransport) Call(addr string, req Request) (Response, error) {
	t.mu.Lock()
	t.ops = append(t.ops, req.Op)
	if req.Op == OpFetchBatch {
		t.rels = append(t.rels, req.Rels...)
	}
	t.mu.Unlock()
	return t.Transport.Call(addr, req)
}

func (t *opRecordingTransport) reset() {
	t.mu.Lock()
	t.ops, t.rels = nil, nil
	t.mu.Unlock()
}

func (t *opRecordingTransport) count(op Op) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, o := range t.ops {
		if o == op {
			n++
		}
	}
	return n
}

func (t *opRecordingTransport) fetchedRels() []string {
	t.mu.Lock()
	out := append([]string{}, t.rels...)
	t.mu.Unlock()
	sort.Strings(out)
	return out
}
