package peernet

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/relation"
)

// TestUpdateLocalInvalidatesSnapshotCache is the write-visibility
// regression test: with the TTL caches warm, a local write must be
// visible to the very next query instead of serving pre-write data for
// up to CacheTTL. Both answering paths are pinned: the unsliced one
// (Snapshot, whose remote data is served from the TTL caches) and the
// sliced one (whose fingerprint must move with the write).
func TestUpdateLocalInvalidatesSnapshotCache(t *testing.T) {
	for _, mode := range []string{"unsliced", "sliced"} {
		t.Run(mode, func(t *testing.T) {
			sys := core.Example1System()
			nodes := startNetwork(t, sys, NewInProc())
			p1 := nodes["P1"]
			now := time.Unix(1000, 0)
			p1.clock = func() time.Time { return now }
			p1.CacheTTL = time.Minute
			q := foquery.MustParse("r1(X,Y)")
			ask := func() []relation.Tuple {
				t.Helper()
				var ans []relation.Tuple
				var err error
				if mode == "sliced" {
					ans, err = p1.PeerConsistentAnswersFor(q, []string{"X", "Y"}, false)
				} else {
					ans, err = p1.PeerConsistentAnswers(q, []string{"X", "Y"}, false)
				}
				if err != nil {
					t.Fatal(err)
				}
				return ans
			}
			before := ask()
			ask() // make sure the TTL caches are warm before the write

			p1.UpdateLocal(func(p *core.Peer) { p.Fact("r1", "fresh", "f") })

			// Still inside the TTL window: the write must be visible.
			got := ask()
			if len(got) != len(before)+1 {
				t.Fatalf("post-write answers %v, want %v plus (fresh,f)", got, before)
			}
			found := false
			for _, tu := range got {
				if tu.Equal(relation.Tuple{"fresh", "f"}) {
					found = true
				}
			}
			if !found {
				t.Fatalf("written fact not visible within TTL: %v", got)
			}

			// And they must match a cache-free node over the same peers.
			fresh := NewNode(p1.Peer, p1.tr, p1.neighborsCopy())
			if err := fresh.Start(":0"); err != nil {
				t.Fatal(err)
			}
			defer fresh.Stop()
			want, err := fresh.PeerConsistentAnswers(q, []string{"X", "Y"}, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("within-TTL answers %v != fresh-node answers %v", got, want)
			}
			if p1.LocalWrites() != 1 {
				t.Fatalf("LocalWrites = %d, want 1", p1.LocalWrites())
			}
		})
	}
}

// TestSchemaMutatingUpdateLocalVsRequestsRace grows the served peer's
// schema (Declare + Fact through UpdateLocal) while concurrent
// requests exercise every handler path that reads it — OpFetchBatch
// reads the live schema, OpExportSpec renders a clone, and the PCA path
// snapshots it. Run under -race.
func TestSchemaMutatingUpdateLocalVsRequestsRace(t *testing.T) {
	sys := core.Example1System()
	tr := NewInProc()
	nodes := startNetwork(t, sys, tr)
	p1 := nodes["P1"]

	// The writer count is bounded: every Declare grows the schema that
	// each snapshot and spec export then has to clone, so an unbounded
	// loop turns the test quadratic.
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; i < 150; i++ {
			rel := fmt.Sprintf("dyn%d", i)
			p1.UpdateLocal(func(p *core.Peer) {
				p.Declare(rel, 2)
				p.Fact(rel, "k", "v")
			})
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := tr.Call(p1.Addr, Request{Op: OpFetchBatch, Rels: []string{"r1"}})
				if err != nil {
					t.Error(err)
				} else if resp.Err != "" {
					t.Error(resp.Err)
				}
				// Probing a relation the writer may be declaring right now
				// must answer cleanly either way (declared or not yet).
				if _, err := tr.Call(p1.Addr, Request{Op: OpFetchBatch, Rels: []string{fmt.Sprintf("dyn%d", j)}}); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := tr.Call(p1.Addr, Request{Op: OpExportSpec})
				if err != nil {
					t.Error(err)
				} else if resp.Err != "" {
					t.Error(resp.Err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := p1.PeerConsistentAnswersFor(
					foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, false); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	writer.Wait()
}

// TestAnswerQueryCoalescingAccounting fires identical concurrent
// queries at a cold node and checks the serving-plane bookkeeping
// identity that holds at every interleaving: each query is either an
// answer-cache hit, a singleflight leader, or coalesced into one — and
// the solver ran exactly once per leader. All answers must be
// identical.
func TestAnswerQueryCoalescingAccounting(t *testing.T) {
	const n = 12
	sys := core.Example1System()
	tr := NewInProc()
	tr.Latency = 200 * time.Microsecond
	nodes := startNetwork(t, sys, tr)
	p1 := nodes["P1"]
	q := foquery.MustParse("r1(X,Y)")

	answers := make([][]relation.Tuple, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ans, err := p1.PeerConsistentAnswersFor(q, []string{"X", "Y"}, false)
			if err != nil {
				t.Error(err)
				return
			}
			answers[i] = ans
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(answers[i], answers[0]) {
			t.Fatalf("answer %d = %v differs from %v", i, answers[i], answers[0])
		}
	}
	hits, misses := p1.AnswerCacheStats()
	leaders, coalesced := p1.CoalesceStats()
	if hits+misses != n {
		t.Fatalf("cache lookups = %d, want %d", hits+misses, n)
	}
	if misses != leaders+coalesced {
		t.Fatalf("misses=%d but leaders=%d coalesced=%d", misses, leaders, coalesced)
	}
	if p1.SolverRuns() != leaders {
		t.Fatalf("solver ran %d times for %d leaders", p1.SolverRuns(), leaders)
	}
	if leaders < 1 {
		t.Fatal("at least one computation must have run")
	}

	// A repeat query is now a pure cache hit: no new leader.
	if _, err := p1.PeerConsistentAnswersFor(q, []string{"X", "Y"}, false); err != nil {
		t.Fatal(err)
	}
	if l2, _ := p1.CoalesceStats(); l2 != leaders {
		t.Fatalf("repeat query started a new computation (%d -> %d leaders)", leaders, l2)
	}

	// NoCoalesce: a cold key must bypass the flight and run the solver
	// directly.
	p1.NoCoalesce = true
	p1.UpdateLocal(func(p *core.Peer) { p.Fact("r1", "cold", "c") }) // move the fingerprint
	if _, err := p1.PeerConsistentAnswersFor(q, []string{"X", "Y"}, false); err != nil {
		t.Fatal(err)
	}
	if l2, _ := p1.CoalesceStats(); l2 != leaders {
		t.Fatalf("NoCoalesce query went through the flight (%d -> %d leaders)", leaders, l2)
	}
	if p1.SolverRuns() != leaders+1 {
		t.Fatalf("NoCoalesce query did not run the solver (runs=%d)", p1.SolverRuns())
	}
}

// TestRepairStatsAccumulate checks the component counters surface
// through the node: a direct-semantics query that engages the
// conflict-localized engine must report its searches and components.
func TestRepairStatsAccumulate(t *testing.T) {
	sys := core.Example1System()
	nodes := startNetwork(t, sys, NewInProc())
	p1 := nodes["P1"]
	if _, err := p1.PeerConsistentAnswersFor(
		foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, false); err != nil {
		t.Fatal(err)
	}
	searches, localized, components := p1.RepairStats()
	if searches == 0 {
		t.Fatal("repair stats recorded no searches for a direct query")
	}
	if localized > searches || components < localized {
		t.Fatalf("implausible stats: searches=%d localized=%d components=%d",
			searches, localized, components)
	}
}
