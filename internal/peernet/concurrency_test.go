package peernet

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
)

// TestConcurrentRequests hammers a node with parallel fetches, raw
// batch fetches and PCA requests over both transports; results must
// stay correct and the race detector clean.
func TestConcurrentRequests(t *testing.T) {
	for name, tr := range map[string]Transport{
		"inproc": NewInProc(),
		"tcp":    &TCP{},
	} {
		t.Run(name, func(t *testing.T) {
			sys := core.Example1System()
			nodes := startNetwork(t, sys, tr)
			var wg sync.WaitGroup
			errs := make(chan error, 60)
			for i := 0; i < 20; i++ {
				wg.Add(3)
				go func() {
					defer wg.Done()
					tuples, err := nodes["P1"].FetchRelation("P2", "r2")
					if err == nil && len(tuples) != 2 {
						err = fmt.Errorf("fetch got %d tuples", len(tuples))
					}
					errs <- err
				}()
				go func() {
					defer wg.Done()
					resp, err := tr.Call(nodes["P3"].Addr, Request{
						Op: OpFetchBatch, Rels: []string{"r3"},
					})
					if err == nil && resp.Err != "" {
						err = fmt.Errorf("%s", resp.Err)
					}
					if err == nil && len(resp.RelTuples["r3"]) != 2 {
						err = fmt.Errorf("batch fetch got %d tuples", len(resp.RelTuples["r3"]))
					}
					errs <- err
				}()
				go func() {
					defer wg.Done()
					ans, err := nodes["P1"].PeerConsistentAnswers(
						foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, false)
					if err == nil && len(ans) != 3 {
						err = fmt.Errorf("pca got %d answers", len(ans))
					}
					errs <- err
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSetNeighborVsHandleRace mutates the neighbour table while other
// goroutines exercise every reader of it — the OpExportSpec handler,
// the snapshot fan-out and FetchRelation. The seed raced here (an
// unlocked map write against handler reads); this test pins the fix
// under -race.
func TestSetNeighborVsHandleRace(t *testing.T) {
	sys := core.Example1System()
	tr := NewInProc()
	nodes := startNetwork(t, sys, tr)
	p1 := nodes["P1"]
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Rewrites of live entries plus churn on a throwaway id.
			p1.SetNeighbor("P2", nodes["P2"].Addr)
			p1.SetNeighbor(core.PeerID(fmt.Sprintf("X%d", i%4)), "nowhere")
		}
	}()
	var wg2 sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg2.Add(3)
		go func() {
			defer wg2.Done()
			resp, err := tr.Call(p1.Addr, Request{Op: OpExportSpec})
			if err != nil {
				t.Error(err)
			} else if resp.Err != "" {
				t.Error(resp.Err)
			}
		}()
		go func() {
			defer wg2.Done()
			if _, err := p1.Snapshot(false); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg2.Done()
			if _, err := p1.FetchRelation("P2", "r2"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg2.Wait()
	close(stop)
	wg.Wait()
}

// countingTransport wraps a Transport and counts Calls, to observe the
// TTL cache suppressing network traffic.
type countingTransport struct {
	Transport
	calls atomic.Int64
}

func (c *countingTransport) Call(addr string, req Request) (Response, error) {
	c.calls.Add(1)
	return c.Transport.Call(addr, req)
}

// TestSnapshotCacheTTL checks the TTL caches under Snapshot end to
// end: a cold snapshot costs exactly two round trips per remote peer
// with relations (OpExportSpec, then OpFetchBatch), hits inside the
// TTL window cost zero network calls, expiry refetches, and
// SetNeighbor invalidates.
func TestSnapshotCacheTTL(t *testing.T) {
	sys := core.Example1System()
	tr := &countingTransport{Transport: NewInProc()}
	nodes := startNetwork(t, sys, tr)
	p1 := nodes["P1"]
	now := time.Unix(1000, 0)
	p1.clock = func() time.Time { return now }
	p1.CacheTTL = time.Minute

	q := foquery.MustParse("r1(X,Y)")
	want, err := p1.PeerConsistentAnswers(q, []string{"X", "Y"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 {
		t.Fatalf("pca = %v", want)
	}
	// P2 and P3 each own one relation: 2 specs + 2 batches.
	after := tr.calls.Load()
	if after != 4 {
		t.Fatalf("cold snapshot made %d network calls, want 4", after)
	}
	if sh, sm, rh, rm := p1.CacheStats(); sh != 0 || sm != 2 || rh != 0 || rm != 2 {
		t.Fatalf("cold CacheStats = %d/%d spec, %d/%d rel; want 0/2, 0/2", sh, sm, rh, rm)
	}
	// Within TTL: answers identical, zero extra calls.
	got, err := p1.PeerConsistentAnswers(q, []string{"X", "Y"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached answers %v != %v", got, want)
	}
	if c := tr.calls.Load(); c != after {
		t.Fatalf("cached query made %d network calls", c-after)
	}
	if sh, sm, rh, rm := p1.CacheStats(); sh != 2 || sm != 2 || rh != 2 || rm != 2 {
		t.Fatalf("warm CacheStats = %d/%d spec, %d/%d rel; want 2/2, 2/2", sh, sm, rh, rm)
	}
	// Past TTL: refetch.
	now = now.Add(2 * time.Minute)
	if _, err := p1.Snapshot(false); err != nil {
		t.Fatal(err)
	}
	if c := tr.calls.Load(); c == after {
		t.Fatal("expired snapshot should refetch")
	}
	// SetNeighbor invalidates inside the window.
	after = tr.calls.Load()
	p1.SetNeighbor("P2", nodes["P2"].Addr)
	if _, err := p1.Snapshot(false); err != nil {
		t.Fatal(err)
	}
	if c := tr.calls.Load(); c == after {
		t.Fatal("SetNeighbor should invalidate the changed peer's cache entries")
	}
}

// TestFetchRelationCacheTTL checks the relation cache analogously.
func TestFetchRelationCacheTTL(t *testing.T) {
	sys := core.Example1System()
	tr := &countingTransport{Transport: NewInProc()}
	nodes := startNetwork(t, sys, tr)
	p1 := nodes["P1"]
	now := time.Unix(1000, 0)
	p1.clock = func() time.Time { return now }
	p1.CacheTTL = time.Minute

	want, err := p1.FetchRelation("P2", "r2")
	if err != nil {
		t.Fatal(err)
	}
	after := tr.calls.Load()
	got, err := p1.FetchRelation("P2", "r2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached fetch %v != %v", got, want)
	}
	if c := tr.calls.Load(); c != after {
		t.Fatal("cached fetch should not hit the network")
	}
	now = now.Add(2 * time.Minute)
	if _, err := p1.FetchRelation("P2", "r2"); err != nil {
		t.Fatal(err)
	}
	if c := tr.calls.Load(); c == after {
		t.Fatal("expired fetch should hit the network")
	}
}

// TestSnapshotParallelIdentical checks that the concurrent neighbour
// fan-out assembles the same system (and the same PCA answers) as the
// sequential walk, in both the direct and transitive cases.
func TestSnapshotParallelIdentical(t *testing.T) {
	for _, transitive := range []bool{false, true} {
		sys := core.Example4System()
		nodes := startNetwork(t, sys, NewInProc())
		p := nodes["P"]
		p.Parallelism = 1
		seqSys, err := p.Snapshot(transitive)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := p.PeerConsistentAnswers(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, transitive)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 8} {
			p.Parallelism = par
			parSys, err := p.Snapshot(transitive)
			if err != nil {
				t.Fatalf("transitive=%v parallelism %d: %v", transitive, par, err)
			}
			if !reflect.DeepEqual(parSys.Peers(), seqSys.Peers()) {
				t.Fatalf("transitive=%v parallelism %d: peers %v != %v",
					transitive, par, parSys.Peers(), seqSys.Peers())
			}
			got, err := p.PeerConsistentAnswers(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, transitive)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, seq) {
				t.Fatalf("transitive=%v parallelism %d: %v != %v", transitive, par, got, seq)
			}
		}
	}
}
