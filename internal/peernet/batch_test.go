package peernet

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// multiRelSystem is a two-peer system where Q owns three relations, so
// P has something to batch-fetch.
func multiRelSystem(t *testing.T) *core.System {
	t.Helper()
	p := core.NewPeer("P").Declare("r", 1).Fact("r", "x")
	q := core.NewPeer("Q").Declare("a", 1).Declare("b", 1).Declare("c", 1).
		Fact("a", "1").Fact("a", "2").Fact("b", "3")
	sys := core.NewSystem()
	if err := sys.AddPeer(p); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddPeer(q); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFetchRelationsSingleRoundTrip asserts the batched fetch pays one
// link latency for k relations: one transport call, and wall time well
// under the k-sequential-fetch floor.
func TestFetchRelationsSingleRoundTrip(t *testing.T) {
	sys := multiRelSystem(t)
	inproc := NewInProc()
	const latency = 50 * time.Millisecond
	inproc.Latency = latency
	tr := &countingTransport{Transport: inproc}
	nodes := startNetwork(t, sys, tr)

	rels := []string{"a", "b", "c"}
	start := time.Now()
	got, err := nodes["P"].FetchRelations("Q", rels)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if calls := tr.calls.Load(); calls != 1 {
		t.Fatalf("batched fetch of %d relations used %d round-trips, want 1", len(rels), calls)
	}
	// Three per-relation round trips would sleep >= 3*latency; the
	// batch pays the latency once. Allow one extra latency of slack for
	// scheduling noise.
	if elapsed >= 2*latency {
		t.Fatalf("batched fetch took %v, want < %v (sequential floor is %v)", elapsed, 2*latency, 3*latency)
	}
	if len(got["a"]) != 2 || len(got["b"]) != 1 || len(got["c"]) != 0 {
		t.Fatalf("batched tuples = %v", got)
	}
}

// TestFetchRelationsMatchesIndividual asserts the batch returns exactly
// what per-relation FetchRelation calls return.
func TestFetchRelationsMatchesIndividual(t *testing.T) {
	sys := multiRelSystem(t)
	nodes := startNetwork(t, sys, NewInProc())
	rels := []string{"a", "b", "c"}
	batch, err := nodes["P"].FetchRelations("Q", rels)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range rels {
		one, err := nodes["P"].FetchRelation("Q", rel)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[rel], one) {
			t.Fatalf("relation %s: batch %v != individual %v", rel, batch[rel], one)
		}
	}
}

// TestFetchRelationsUnknownRelation asserts a bad relation in the batch
// surfaces the remote error.
func TestFetchRelationsUnknownRelation(t *testing.T) {
	sys := multiRelSystem(t)
	nodes := startNetwork(t, sys, NewInProc())
	if _, err := nodes["P"].FetchRelations("Q", []string{"a", "nope"}); err == nil {
		t.Fatal("expected an error for an undeclared relation")
	}
}

// TestFetchRelationsServesFromCache asserts that with a TTL cache, a
// second batch for the same relations performs no round-trip, and that
// partial hits only fetch the misses (still in one call).
func TestFetchRelationsServesFromCache(t *testing.T) {
	sys := multiRelSystem(t)
	inproc := NewInProc()
	tr := &countingTransport{Transport: inproc}
	nodes := startNetwork(t, sys, tr)
	n := nodes["P"]
	n.CacheTTL = time.Hour

	if _, err := n.FetchRelations("Q", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if calls := tr.calls.Load(); calls != 1 {
		t.Fatalf("cold batch used %d calls, want 1", calls)
	}
	got, err := n.FetchRelations("Q", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if calls := tr.calls.Load(); calls != 1 {
		t.Fatalf("warm batch used %d extra calls, want 0", calls-1)
	}
	if len(got["a"]) != 2 || len(got["b"]) != 1 {
		t.Fatalf("cached tuples = %v", got)
	}
	// Partial hit: "c" is cold, "a" is warm — exactly one more call.
	if _, err := n.FetchRelations("Q", []string{"a", "c"}); err != nil {
		t.Fatal(err)
	}
	if calls := tr.calls.Load(); calls != 2 {
		t.Fatalf("partial-hit batch used %d total calls, want 2", calls)
	}
}
