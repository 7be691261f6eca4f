package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// The benchmark's description files must say what the code does.

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, code %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	if got := names(b.EndToEnd); !sameNames(got, endToEndMetrics) {
		t.Errorf("end_to_end %v, code reports %v", got, endToEndMetrics)
	}
	if got := names(b.PerLayer); !sameNames(got, perLayerMetrics) {
		t.Errorf("per_layer %v, code reports %v", got, perLayerMetrics)
	}
}

func TestProvenanceFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("provenance.json")
	if err != nil {
		t.Fatal(err)
	}
	var got []workloadProvenance
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if want := provenance(); !reflect.DeepEqual(got, want) {
		t.Errorf("provenance.json is stale; regenerate it with --describe\ngot  %+v\nwant %+v", got, want)
	}
}

// Every workload generates the same stream from the same seed, and a
// different one from another seed.
func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.stream(7, 64), w.stream(7, 64), w.stream(8, 64)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different streams", w.name)
		}
		if reflect.DeepEqual(a, c) && w.name != "write-churn" {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
	}
}
