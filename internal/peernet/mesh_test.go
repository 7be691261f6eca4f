package peernet

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// failSecondListen is an in-process transport whose second Listen
// fails; it records which listeners were closed.
type failSecondListen struct {
	*InProc
	listens int
	closed  []string
}

func (f *failSecondListen) Listen(addr string, h Handler) (string, func(), error) {
	f.listens++
	if f.listens == 2 {
		return "", nil, errors.New("injected: listen refused")
	}
	bound, closer, err := f.InProc.Listen(addr, h)
	if err != nil {
		return "", nil, err
	}
	return bound, func() {
		f.closed = append(f.closed, bound)
		closer()
	}, nil
}

func TestStartMeshWiresFullOverlay(t *testing.T) {
	sys := core.Example1System()
	nodes, stop, err := StartMesh(sys, NewInProc(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if len(nodes) != len(sys.Peers()) {
		t.Fatalf("%d nodes for %d peers", len(nodes), len(sys.Peers()))
	}
	for id, n := range nodes {
		if n.Parallelism != 3 {
			t.Fatalf("%s: Parallelism = %d, want 3", id, n.Parallelism)
		}
		for other, m := range nodes {
			addr, ok := n.NeighborAddr(other)
			if other == id {
				if ok {
					t.Fatalf("%s lists itself as a neighbour", id)
				}
				continue
			}
			if !ok || addr != m.BoundAddr() {
				t.Fatalf("%s: neighbour %s at %q, want %q", id, other, addr, m.BoundAddr())
			}
		}
	}
}

// TestStartMeshStopsStartedOnFailure: when a later Start fails, the
// nodes already started are stopped and the error is returned.
func TestStartMeshStopsStartedOnFailure(t *testing.T) {
	tr := &failSecondListen{InProc: NewInProc()}
	nodes, stop, err := StartMesh(core.Example1System(), tr, 1)
	if err == nil {
		stop()
		t.Fatal("StartMesh should fail when a Listen fails")
	}
	if nodes != nil || stop != nil {
		t.Fatal("a failed StartMesh returns no nodes and no stop func")
	}
	if tr.listens != 2 || len(tr.closed) != 1 {
		t.Fatalf("listens=%d closed=%v, want the first node's listener closed", tr.listens, tr.closed)
	}
}
