package main

import "fmt"

// workloadProvenance is what provenance.json records about a workload.
type workloadProvenance struct {
	Name        string   `json:"name"`
	Why         string   `json:"why"`
	Sizes       string   `json:"sizes"`
	OpenLoop    string   `json:"open_loop"`
	ClosedLoop  string   `json:"closed_loop"`
	Stresses    []string `json:"stresses"`
	Idle        []string `json:"idle"`
	RouteCheck  string   `json:"route_check"`
	LayerMapTop string   `json:"layer_map_top"`
	HeldOutSeed int64    `json:"held_out_seed"`
}

// provenance describes every workload from its definition.
func provenance() []workloadProvenance {
	out := make([]workloadProvenance, len(workloads))
	for i, w := range workloads {
		out[i] = workloadProvenance{
			Name:  w.name,
			Why:   w.why,
			Sizes: w.sizes,
			OpenLoop: fmt.Sprintf("first phase of each of %d rounds: %g ops/s fixed rate from %d senders over %d keep-alive connections "+
				"for %g x --seconds / %d; latency timed from each request's intended send time",
				rounds, w.rate, conns, conns, openShare, rounds),
			ClosedLoop: fmt.Sprintf("second phase of each round: %d clients run a fixed %g x %g x --seconds / %d ops "+
				"(%g ops/s is the closed-loop capacity on a 2-CPU box); capacity = ops / wall time",
				conns, w.closedRate, closedShare, rounds, w.closedRate),
			Stresses:    w.stresses,
			Idle:        w.idle,
			RouteCheck:  w.routeDoc,
			LayerMapTop: w.top,
			HeldOutSeed: w.heldOut,
		}
	}
	return out
}
