package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/peernet"
	"repro/internal/program"
	"repro/internal/relation"
)

// encodeAnswers renders answers in the /query response shape, so a
// served body can be compared with an oracle byte for byte.
func encodeAnswers(ans []relation.Tuple) []byte {
	qb := queryBody{Count: len(ans), Answers: make([][]string, 0, len(ans))}
	for _, t := range ans {
		qb.Answers = append(qb.Answers, []string(t))
	}
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(qb) // cannot fail for [][]string
	return buf.Bytes()
}

// oracleAnswers computes a query's answers over a whole system with no
// slice and no cache: core.PeerConsistentAnswers for the direct
// semantics, program.PeerConsistentAnswersViaLP for the transitive one.
func oracleAnswers(sys *core.System, id core.PeerID, o *op) ([]relation.Tuple, error) {
	f, err := foquery.Parse(o.query)
	if err != nil {
		return nil, err
	}
	if o.transitive {
		return program.PeerConsistentAnswersViaLP(sys, id, f, o.vars, program.RunOptions{Transitive: true})
	}
	return core.PeerConsistentAnswers(sys, id, f, o.vars, core.SolveOptions{})
}

// checkAnswers compares, on the quiesced deployment, the served answer
// of every shape with a fresh uncached node's sliced answer and with
// the unsliced oracle over a full snapshot of the same data. It returns
// the number of shapes checked and a description of every mismatch.
func checkAnswers(d *deployment, shapes []op) (int, []string) {
	neighbors := make(map[core.PeerID]string)
	for _, n := range d.nodes {
		if n != d.root {
			neighbors[n.Peer.ID] = n.BoundAddr()
		}
	}
	fresh := peernet.NewNode(d.root.Peer, &peernet.TCP{}, neighbors)
	snaps := map[bool]*core.System{}
	var bad []string
	nonEmpty := false
	for i := range shapes {
		o := &shapes[i]
		served, err := d.do(o, nil, 0)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: served: %v", o.query, err))
			continue
		}
		f, err := foquery.Parse(o.query)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", o.query, err))
			continue
		}
		sliced, err := fresh.PeerConsistentAnswersFor(f, o.vars, o.transitive)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: fresh node: %v", o.query, err))
			continue
		}
		sys, ok := snaps[o.transitive]
		if !ok {
			if sys, err = fresh.Snapshot(o.transitive); err != nil {
				bad = append(bad, fmt.Sprintf("%s: snapshot: %v", o.query, err))
				continue
			}
			snaps[o.transitive] = sys
		}
		oracle, err := oracleAnswers(sys, d.root.Peer.ID, o)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: oracle: %v", o.query, err))
			continue
		}
		if want := encodeAnswers(sliced); !bytes.Equal(served, want) {
			bad = append(bad, fmt.Sprintf("%s: served %q, fresh node %q", o.query, served, want))
		}
		if want := encodeAnswers(oracle); !bytes.Equal(served, want) {
			bad = append(bad, fmt.Sprintf("%s: served %q, unsliced oracle %q", o.query, served, want))
		}
		nonEmpty = nonEmpty || len(oracle) > 0
	}
	if !nonEmpty && len(bad) == 0 {
		bad = append(bad, "every checked shape has an empty answer: the check would not see a wrong one")
	}
	return len(shapes), bad
}
