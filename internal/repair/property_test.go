package repair

import (
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/relation"
)

// randomInstance builds a random binary-relation instance.
func randomInstance(rng *rand.Rand, rels []string, maxTuples int, dom []string) *relation.Instance {
	in := relation.NewInstance()
	for _, rel := range rels {
		for i := 0; i < rng.Intn(maxTuples+1); i++ {
			in.Insert(rel, relation.Tuple{dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))]})
		}
	}
	return in
}

// TestRepairProperties checks, over random instances and constraint
// sets, the defining properties of Definition 1:
//
//  1. every repair satisfies the constraints;
//  2. repair deltas are pairwise ⊆-incomparable (minimality);
//  3. a consistent instance is its own unique repair;
//  4. repairs never touch fixed relations.
func TestRepairProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dom := []string{"a", "b", "c"}
	deps := []*constraint.Dependency{
		constraint.FD("fd_r", "r"),
		constraint.Inclusion("inc", "q", "r", 2),
		constraint.KeyEGD("egd", "r", "s"),
	}
	for trial := 0; trial < 120; trial++ {
		in := randomInstance(rng, []string{"r", "q", "s"}, 3, dom)
		fixed := map[string]bool{"q": true}
		reps, err := Repairs(in, deps, Options{Fixed: fixed})
		if err != nil && err != ErrBound {
			t.Fatalf("trial %d: %v", trial, err)
		}
		deltas := make([]map[string]bool, len(reps))
		for i, r := range reps {
			ok, cerr := allSatisfied(r, deps)
			if cerr != nil || !ok {
				t.Fatalf("trial %d: repair %v violates constraints (%v)\ninput %v", trial, r, cerr, in)
			}
			// Fixed relations unchanged.
			if !r.RestrictRels(fixed).Equal(in.RestrictRels(fixed)) {
				t.Fatalf("trial %d: fixed relation changed in %v", trial, r)
			}
			deltas[i] = deltaKeySet(relation.SymDiff(in, r))
		}
		for i := range reps {
			for j := range reps {
				if i != j && relation.SubsetOf(deltas[i], deltas[j]) && len(deltas[i]) < len(deltas[j]) {
					t.Fatalf("trial %d: repair %d subsumes repair %d\n%v\n%v",
						trial, i, j, reps[i], reps[j])
				}
			}
		}
		// Consistent input: unique repair = input.
		if ok, _ := allSatisfied(in, deps); ok {
			if len(reps) != 1 || !reps[0].Equal(in) {
				t.Fatalf("trial %d: consistent instance not its own repair: %v", trial, reps)
			}
		}
	}
}

// TestRepairSoundCompleteSmall exhaustively verifies the repair set on
// tiny instances against a brute-force search over all subsets of a
// candidate fact space (deletion-only constraints).
func TestRepairSoundCompleteSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dom := []string{"a", "b"}
	deps := []*constraint.Dependency{constraint.FD("fd", "r"), constraint.KeyEGD("egd", "r", "s")}
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(rng, []string{"r", "s"}, 2, dom)
		reps, err := Repairs(in, deps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteRepairs(in, deps)
		if len(reps) != len(want) {
			t.Fatalf("trial %d: %d repairs, brute force %d\ninput %v\ngot %v\nwant %v",
				trial, len(reps), len(want), in, reps, want)
		}
		wantKeys := map[string]bool{}
		for _, w := range want {
			wantKeys[w.Key()] = true
		}
		for _, r := range reps {
			if !wantKeys[r.Key()] {
				t.Fatalf("trial %d: unexpected repair %v", trial, r)
			}
		}
	}
}

// bruteRepairs enumerates all sub-instances (deletion-only repairs are
// complete for EGD/FD sets) and keeps the consistent ones with
// ⊆-minimal deltas.
func bruteRepairs(in *relation.Instance, deps []*constraint.Dependency) []*relation.Instance {
	facts := allFacts(in)
	n := len(facts)
	var consistent []*relation.Instance
	var deltas []map[string]bool
	for bits := 0; bits < (1 << n); bits++ {
		cand := relation.NewInstance()
		for i, f := range facts {
			if bits&(1<<i) != 0 {
				cand.Insert(f.Rel, f.Tuple)
			}
		}
		ok, _ := allSatisfied(cand, deps)
		if ok {
			consistent = append(consistent, cand)
			deltas = append(deltas, deltaKeySet(relation.SymDiff(in, cand)))
		}
	}
	var out []*relation.Instance
	for i := range consistent {
		minimal := true
		for j := range consistent {
			if i != j && relation.SubsetOf(deltas[j], deltas[i]) && len(deltas[j]) < len(deltas[i]) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, consistent[i])
		}
	}
	return out
}

func allFacts(in *relation.Instance) []relation.Fact {
	var out []relation.Fact
	for _, rel := range in.Relations() {
		for _, t := range in.Tuples(rel) {
			out = append(out, relation.Fact{Rel: rel, Tuple: t})
		}
	}
	return out
}

// allSatisfied reports whether inst satisfies every dependency.
func allSatisfied(inst *relation.Instance, deps []*constraint.Dependency) (bool, error) {
	v, err := constraint.FirstViolation(inst, deps)
	return v == nil && err == nil, err
}

// deltaKeySet converts a delta into a set of fact keys, for
// relation.SubsetOf.
func deltaKeySet(delta []relation.Fact) map[string]bool {
	s := make(map[string]bool, len(delta))
	for _, f := range delta {
		s[f.Key()] = true
	}
	return s
}
