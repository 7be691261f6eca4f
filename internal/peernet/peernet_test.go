package peernet

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/relation"
	"repro/internal/sysdsl"
	"repro/internal/workload"
)

// startNetwork deploys every peer of a system as a node on the given
// transport and wires up the neighbour addresses.
func startNetwork(t *testing.T, sys *core.System, tr Transport) map[core.PeerID]*Node {
	t.Helper()
	nodes := map[core.PeerID]*Node{}
	for _, id := range sys.Peers() {
		p, _ := sys.Peer(id)
		n := NewNode(p, tr, nil)
		if err := n.Start(":0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		nodes[id] = n
	}
	for _, n := range nodes {
		for _, m := range nodes {
			if n != m {
				n.SetNeighbor(m.Peer.ID, m.Addr)
			}
		}
	}
	return nodes
}

func TestFetchAndQueryInProc(t *testing.T) {
	sys := core.Example1System()
	nodes := startNetwork(t, sys, NewInProc())
	p1 := nodes["P1"]
	tuples, err := p1.FetchRelation("P2", "r2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("fetched = %v", tuples)
	}
	// A dangling address fails.
	resp, err := NewInProc().Call("nowhere", Request{Op: OpFetchBatch})
	if err == nil && resp.Err == "" {
		t.Fatal("dangling address should fail")
	}
}

// TestNetworkedPCADirect runs Example 2 over the wire: the PCAs
// computed by the node (which fetches P2's and P3's data remotely)
// must equal the in-memory semantics.
func TestNetworkedPCADirect(t *testing.T) {
	sys := core.Example1System()
	for name, tr := range map[string]Transport{
		"inproc": NewInProc(),
		"tcp":    &TCP{},
	} {
		t.Run(name, func(t *testing.T) {
			nodes := startNetwork(t, sys, tr)
			ans, err := nodes["P1"].PeerConsistentAnswers(
				foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, false)
			if err != nil {
				t.Fatal(err)
			}
			want := []relation.Tuple{{"a", "b"}, {"a", "e"}, {"c", "d"}}
			if !reflect.DeepEqual(ans, want) {
				t.Fatalf("networked PCAs = %v, want %v", ans, want)
			}
		})
	}
}

// TestNetworkedPCATransitive runs Example 4 over the wire: P discovers
// C through Q's exported neighbour table and assembles the combined
// program.
func TestNetworkedPCATransitive(t *testing.T) {
	sys := core.Example4System()
	nodes := startNetwork(t, sys, NewInProc())
	// P only knows Q; Q knows C. Drop P's direct knowledge of C to
	// exercise discovery.
	p := nodes["P"]
	delete(p.Neighbors, "C")

	// Direct case first: DEC (3) is vacuously satisfied (s1 empty), so
	// every local tuple is a PCA.
	direct, err := p.PeerConsistentAnswers(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, []relation.Tuple{{"a", "b"}}) {
		t.Fatalf("direct = %v", direct)
	}

	// Transitive case: Q imports U(c,b) into S1, so P's R1(a,b) is no
	// longer certain (it is deleted in one solution).
	trans, err := p.PeerConsistentAnswers(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(trans) != 0 {
		t.Fatalf("transitive = %v, want none", trans)
	}
	// R2 gains no certain tuples either (insert differs per solution).
	trans2, err := p.PeerConsistentAnswers(foquery.MustParse("r2(X,Y)"), []string{"X", "Y"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(trans2) != 0 {
		t.Fatalf("transitive r2 = %v", trans2)
	}
}

func TestOpPCARemoteDelegation(t *testing.T) {
	sys := core.Example1System()
	tr := NewInProc()
	nodes := startNetwork(t, sys, tr)
	// Ask P1 over the network for its PCAs.
	resp, err := tr.Call(nodes["P1"].Addr, Request{
		Op: OpPCA, Query: "r1(X,Y)", Vars: []string{"X", "Y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if len(resp.Tuples) != 3 {
		t.Fatalf("remote PCAs = %v", resp.Tuples)
	}
}

// TestWireOpsAndErrors pins the wire protocol's edges: the spec export
// lists the peer's relations, a batch naming an undeclared relation
// fails, and any op outside OpExportSpec/OpFetchBatch/OpPCA — the ops
// of earlier protocol versions included — is answered "unknown op".
func TestWireOpsAndErrors(t *testing.T) {
	sys := core.Example1System()
	tr := NewInProc()
	nodes := startNetwork(t, sys, tr)
	resp, err := tr.Call(nodes["P2"].Addr, Request{Op: OpExportSpec})
	if err != nil || resp.Err != "" {
		t.Fatalf("%v %v", err, resp.Err)
	}
	if !strings.Contains(resp.Spec, "relation r2/2") {
		t.Fatalf("spec export = %q", resp.Spec)
	}
	resp, _ = tr.Call(nodes["P2"].Addr, Request{Op: OpFetchBatch, Rels: []string{"zzz"}})
	if resp.Err == "" {
		t.Fatal("fetch of unknown relation should fail")
	}
	for _, op := range []Op{"bogus", "export", "fetch", "query", "relations"} {
		resp, err := tr.Call(nodes["P2"].Addr, Request{Op: op, Rels: []string{"r2"}, Query: "r2(X,Y)", Vars: []string{"X", "Y"}})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp.Err, "unknown op") || resp.Tuples != nil || resp.Spec != "" {
			t.Fatalf("op %q: resp = %+v, want an unknown-op error", op, resp)
		}
	}
}

func TestInProcLatency(t *testing.T) {
	tr := NewInProc()
	tr.Latency = 5 * time.Millisecond
	_, _, err := tr.Listen("a", func(Request) Response { return Response{} })
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := tr.Call("a", Request{Op: OpExportSpec}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
}

func TestInProcDuplicateBind(t *testing.T) {
	tr := NewInProc()
	h := func(Request) Response { return Response{} }
	if _, _, err := tr.Listen("x", h); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Listen("x", h); err == nil {
		t.Fatal("duplicate bind should fail")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	tr := &TCP{}
	bound, closer, err := tr.Listen("127.0.0.1:0", func(req Request) Response {
		return Response{Spec: "echo-" + string(req.Op)}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	resp, err := tr.Call(bound, Request{Op: OpExportSpec})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Spec != "echo-exportspec" {
		t.Fatalf("resp = %+v", resp)
	}
	if _, err := tr.Call("127.0.0.1:1", Request{}); err == nil {
		t.Fatal("dial to closed port should fail")
	}
}

func TestSnapshotMissingNeighbor(t *testing.T) {
	sys := core.Example1System()
	p1, _ := sys.Peer("P1")
	n := NewNode(p1, NewInProc(), nil)
	if _, err := n.Snapshot(false); err == nil {
		t.Fatal("snapshot without neighbour addresses should fail")
	}
}

// TestSnapshotReproducesSystem: Snapshot assembles, over the wire, the
// system the semantics is defined on. Direct: the root plus its DEC
// neighbours with their own DECs/trust dropped. Transitive: the whole
// reachable overlay (every peer, under the full-mesh neighbour tables)
// with specifications intact. Both are compared as sysdsl text,
// schemas, facts, trust and DECs included.
func TestSnapshotReproducesSystem(t *testing.T) {
	for _, fx := range []struct {
		name  string
		build func() *core.System
		root  core.PeerID
	}{
		{"Example1", core.Example1System, "P1"},
		{"WideUniverse", func() *core.System { return workload.WideUniverse(3, 2, 4, 1, 1) }, "P0"},
	} {
		for name, newTr := range map[string]func() Transport{
			"inproc": func() Transport { return NewInProc() },
			"tcp":    func() Transport { return &TCP{} },
		} {
			fx, newTr := fx, newTr
			t.Run(fx.name+"/"+name, func(t *testing.T) {
				src := fx.build()
				root, _ := src.Peer(fx.root)
				direct := core.NewSystem()
				direct.MustAddPeer(root.Clone())
				for id := range root.DECs {
					p, _ := src.Peer(id)
					c := p.Clone()
					c.DECs = make(map[core.PeerID][]*constraint.Dependency)
					c.Trust = make(map[core.PeerID]core.TrustLevel)
					direct.MustAddPeer(c)
				}
				nodes := startNetwork(t, fx.build(), newTr())
				for _, tc := range []struct {
					transitive bool
					want       *core.System
				}{{false, direct}, {true, src}} {
					got, err := nodes[fx.root].Snapshot(tc.transitive)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := formatSorted(got), formatSorted(tc.want); g != w {
						t.Fatalf("transitive=%v snapshot:\n%s\nwant:\n%s", tc.transitive, g, w)
					}
				}
			})
		}
	}
}

// formatSorted renders a system as sysdsl text with its peers in id
// order, so systems assembled in different peer orders compare equal.
func formatSorted(sys *core.System) string {
	ids := sys.Peers()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := core.NewSystem()
	for _, id := range ids {
		p, _ := sys.Peer(id)
		out.MustAddPeer(p.Clone())
	}
	return sysdsl.Format(out)
}

// TestNetworkedPCATransitiveTCP repeats the Example 4 discovery
// scenario over real TCP sockets.
func TestNetworkedPCATransitiveTCP(t *testing.T) {
	sys := core.Example4System()
	nodes := startNetwork(t, sys, &TCP{})
	p := nodes["P"]
	delete(p.Neighbors, "C") // force discovery through Q's export

	trans, err := p.PeerConsistentAnswers(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(trans) != 0 {
		t.Fatalf("transitive = %v, want none (r1(a,b) not certain)", trans)
	}
}
