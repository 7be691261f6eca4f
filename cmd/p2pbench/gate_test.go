package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/benchcase"
)

func loadBaseline(t *testing.T) gateResult {
	t.Helper()
	data, err := os.ReadFile("../../bench/BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base gateResult
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	return base
}

func scaled(r gateResult, key string, factor float64) gateResult {
	out := gateResult{}
	for k, v := range r {
		out[k] = v
	}
	out[key] *= factor
	return out
}

func TestGateCompare(t *testing.T) {
	base := loadBaseline(t)
	if err := gateCompare(io.Discard, base, base, 0.25); err != nil {
		t.Fatalf("equal results must pass: %v", err)
	}
	for _, key := range []string{"b10_norm", "b12_large_universe_allocs_op"} {
		err := gateCompare(io.Discard, scaled(base, key, 1.26), base, 0.25)
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Fatalf("+26%% %s: err = %v, want a regression naming it", key, err)
		}
		if err := gateCompare(io.Discard, scaled(base, key, 1.2), base, 0.25); err != nil {
			t.Fatalf("+20%% %s is inside the limit: %v", key, err)
		}
	}
	err := gateCompare(io.Discard, scaled(base, "parallelism", 4), base, 0.25)
	if err == nil || !strings.Contains(err.Error(), "incomparable") {
		t.Fatalf("parallelism mismatch: err = %v", err)
	}
	missing := scaled(base, "b13_norm", 1)
	delete(missing, "b13_norm")
	err = gateCompare(io.Discard, base, missing, 0.25)
	if err == nil || !strings.Contains(err.Error(), "b13_norm") {
		t.Fatalf("baseline without b13_norm: err = %v, want an error naming it", err)
	}
}

// TestGateKeysMatchBaseline runs the gate's measurement loop over the
// gated cases with their fixtures stubbed out: the keys it emits must
// be exactly the checked-in baseline's.
func TestGateKeysMatchBaseline(t *testing.T) {
	var stubs []benchcase.Case
	for _, c := range gateCases() {
		c.Setup = func(int) (func() (any, error), func(), error) {
			return func() (any, error) { return nil, nil }, func() {}, nil
		}
		stubs = append(stubs, c)
	}
	cur, err := runGateMeasure(stubs, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(r gateResult) []string {
		var ks []string
		for k := range r {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	got, want := keys(cur), keys(loadBaseline(t))
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("gate keys differ from the baseline:\ngot  %v\nwant %v", got, want)
	}
}
