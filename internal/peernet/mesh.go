package peernet

import "repro/internal/core"

// StartMesh deploys every peer of sys as a node on tr: each node gets
// Parallelism par, starts on an ephemeral address (":0"), and then
// knows every other node as a neighbour at its bound address (a full
// static overlay). stop stops every node. If a Start fails, the nodes
// already started are stopped and the error is returned.
//
// Knobs such as CacheTTL or NoIncremental are set on the returned
// nodes before the first query.
func StartMesh(sys *core.System, tr Transport, par int) (nodes map[core.PeerID]*Node, stop func(), err error) {
	nodes = make(map[core.PeerID]*Node)
	var started []*Node
	stop = func() {
		for _, n := range started {
			n.Stop()
		}
	}
	for _, id := range sys.Peers() {
		p, _ := sys.Peer(id)
		n := NewNode(p, tr, nil)
		n.Parallelism = par
		if err := n.Start(":0"); err != nil {
			stop()
			return nil, nil, err
		}
		started = append(started, n)
		nodes[id] = n
	}
	for _, n := range nodes {
		for _, m := range nodes {
			if n != m {
				n.SetNeighbor(m.Peer.ID, m.BoundAddr())
			}
		}
	}
	return nodes, stop, nil
}
