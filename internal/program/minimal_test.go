package program

import (
	"sort"

	"repro/internal/relation"
)

// filterMinimal keeps the instances whose symmetric difference from
// base is ⊆-minimal within the set. The paper's choice-operator
// programs pick existential witnesses independently per violation key;
// when violations overlap (one insertion can satisfy several), some
// answer sets correspond to repairs that are not ≤r-minimal. Filtering
// by delta minimality restores exact agreement with the
// model-theoretic semantics of Definition 4 — the tests cross-validate
// core.SolutionsFor == filterMinimal(SolutionsViaLP).
func filterMinimal(base *relation.Instance, sols []*relation.Instance) []*relation.Instance {
	deltas := make([]map[string]bool, len(sols))
	for i, s := range sols {
		deltas[i] = map[string]bool{}
		for _, f := range relation.SymDiff(base, s) {
			deltas[i][f.Key()] = true
		}
	}
	var out []*relation.Instance
	seen := map[string]bool{}
	for i, s := range sols {
		minimal := true
		for j := range sols {
			if len(deltas[j]) < len(deltas[i]) && relation.SubsetOf(deltas[j], deltas[i]) {
				minimal = false
				break
			}
		}
		if k := s.Key(); minimal && !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}
