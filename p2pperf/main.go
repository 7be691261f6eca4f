// Command p2pperf is the end-to-end benchmark of peer consistent query
// answering over real HTTP and TCP. It starts every peer of a generated
// overlay as a peernet.Node on loopback TCP, serves the root through
// serve.Server on a loopback net/http listener, drives it from two
// keep-alive connections, and checks the served answers against a fresh
// uncached node and the unsliced engines.
//
//	p2pperf --workload <name|all> --seed <n> --seconds <n> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics (set-up time,
// open-loop median query latency, closed-loop capacity, allocations per
// operation, resident memory) and prints the query p95, write latencies
// and the error ratio beside them; with --trace 1 the per-layer metrics
// of a traced run. The last line of standard output is the JSON result. The
// exit code is 1 when a correctness or route self-check fails, 2 on a
// usage or set-up error and 3 when the run is invalid (the load
// generator ran late), in which case no result is printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory for the spans of traced runs (empty: keep in memory only)")
	describe := flag.Bool("describe", false, "print the workloads' provenance as JSON and exit")
	flag.Parse()
	if *describe {
		enc := json.NewEncoder(os.Stdout)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(provenance()); err != nil {
			fmt.Fprintf(os.Stderr, "p2pperf: %v\n", err)
			os.Exit(2)
		}
		return
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []*workload{w}
	} else {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "p2pperf: unknown workload %q (have %s, all)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "p2pperf: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		fmt.Printf("== %s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d\n",
			w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		out, err := runValid(w, *seed, float64(*seconds), *trace == 1, *traceDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "p2pperf: %s: %v\n", w.name, err)
			os.Exit(2)
		}
		want := endToEndMetrics
		if *trace == 1 {
			want = perLayerMetrics
		}
		if !sameNames(out.order, want) {
			fmt.Fprintf(os.Stderr, "p2pperf: %s reported %v, want %v\n", w.name, out.order, want)
			os.Exit(2)
		}
		fmt.Printf("%-36s %14s  %-6s %s\n", "metric", "value", "unit", "samples")
		for _, n := range out.order {
			m := out.metrics[n]
			fmt.Printf("%-36s %14.4f  %-6s %d\n", n, m.Value, m.Unit, m.Samples)
			key := n
			if len(ws) > 1 {
				key = w.name + "/" + n
			}
			res.Metrics[key] = m
		}
		for _, n := range out.notes {
			fmt.Println("  " + n)
		}
		for _, p := range out.problems {
			fmt.Println("  FAIL " + p)
		}
		if out.invalid != "" {
			fmt.Fprintf(os.Stderr, "p2pperf: %s: invalid run, not a data point: %s\n", w.name, out.invalid)
			os.Exit(3)
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		res.Correct = res.Correct && len(out.problems) == 0
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p2pperf: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// runValid runs a workload, repeating it once from a fresh deployment
// when the first attempt is invalid.
func runValid(w *workload, seed int64, seconds float64, traced bool, traceDir string) (*outcome, error) {
	var out *outcome
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		if traced {
			out, err = runTraced(w, seed, seconds, traceDir)
		} else {
			out, err = runEndToEnd(w, seed, seconds)
		}
		if err != nil || out.invalid == "" {
			return out, err
		}
		fmt.Fprintf(os.Stderr, "p2pperf: %s: attempt %d invalid (%s), repeating\n", w.name, attempt+1, out.invalid)
	}
	return out, nil
}

// sameNames reports whether a and b hold the same names.
func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, n := range a {
		set[n] = true
	}
	for _, n := range b {
		if !set[n] {
			return false
		}
	}
	return true
}
