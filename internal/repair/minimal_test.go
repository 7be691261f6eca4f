package repair

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// TestMinimalByDeltaLargeCandidateSet exercises the bitset subset
// filter with well over 100 candidates: 120 singleton deltas (all
// minimal), 120 dominated two-element deltas, and duplicates of the
// singletons. Only the 120 distinct singletons may survive.
func TestMinimalByDeltaLargeCandidateSet(t *testing.T) {
	tab := symtab.New()
	id := func(i int) symtab.Sym { return tab.Intern(fmt.Sprintf("f%03d", i)) }

	var insts []*relation.Instance
	var deltas []bitset.Set
	mk := func(delta ...symtab.Sym) {
		in := relation.NewInstance()
		in.Insert("r", relation.Tuple{fmt.Sprintf("row%d", len(insts))})
		insts = append(insts, in)
		deltas = append(deltas, syms(delta...))
	}
	const n = 120
	for i := 0; i < n; i++ {
		mk(id(i)) // minimal
	}
	for i := 0; i < n; i++ {
		mk(id(i), id(n+i)) // {i, n+i} ⊇ {i}: dominated
	}
	for i := 0; i < n; i++ {
		mk(id(i)) // duplicate of a minimal delta: deduplicated
	}

	min, _ := minimalByDelta(insts, deltas)
	if len(min) != n {
		t.Fatalf("minimalByDelta kept %d candidates, want %d", len(min), n)
	}
	// The survivors must be exactly the first n instances (the
	// singleton-delta ones, in their sorted-by-size stable order).
	seen := map[*relation.Instance]bool{}
	for _, m := range min {
		seen[m] = true
	}
	for i := 0; i < n; i++ {
		if !seen[insts[i]] {
			t.Fatalf("minimal candidate %d was dropped", i)
		}
	}
}

// TestRepairsManyCandidates is the end-to-end regression for the
// sorted-ID minimality filter: 7 independent FD violations yield 2^7 =
// 128 candidate repairs (all minimal), comfortably past the 100-repair
// mark where the seed's string-keyed quadratic filter dominated. Every
// repair must be consistent and at distance exactly 7.
func TestRepairsManyCandidates(t *testing.T) {
	in := relation.NewInstance()
	const keys = 7
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		in.Insert("r", relation.Tuple{k, "a"})
		in.Insert("r", relation.Tuple{k, "b"})
	}
	deps := []*constraint.Dependency{constraint.FD("fd_r", "r")}

	reps, err := Repairs(in, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1<<keys {
		t.Fatalf("repairs = %d, want %d", len(reps), 1<<keys)
	}
	for _, r := range reps {
		ok, cerr := allSatisfied(r, deps)
		if cerr != nil {
			t.Fatal(cerr)
		}
		if !ok {
			t.Fatalf("inconsistent repair %s", r)
		}
		if d := relation.SymDiff(in, r); len(d) != keys {
			t.Fatalf("repair at distance %d, want %d: %s", len(d), keys, r)
		}
	}
}
