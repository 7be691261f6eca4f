package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/benchcase"
)

// The benchmark regression gate measures every case of the benchcase
// table that carries a Gate stem (B5 grounding, B1 repair, B9 sliced
// answering, B10 localized repair, B11 delegated fan-out, B12
// large-universe CQA, the B13 serving stream and the B14 incremental
// churn loop) and compares them against a checked-in baseline
// (bench/BENCH_baseline.json). Raw times are not portable across
// machines, so the gate also measures a fixed CPU-bound calibration
// loop in the same process and gates on the *normalized* ratios
// time(bench)/time(calibration): a machine that is uniformly 2x slower
// scores the same, while a regression in the measured path moves the
// ratio. The calibration loop is single-threaded, so the gate
// measurements run at Parallelism 1 — otherwise the normalization
// would depend on the runner's core count; sequential output is
// byte-identical to parallel, so a sequential regression is an engine
// regression. Comparing measurements taken at different parallelism
// levels is rejected as incomparable. Every measurement is the minimum
// of gateRounds blocks, which is far more stable than a mean under CI
// noise.

// gateRounds is how many measurement blocks run per metric; the
// minimum block is kept. A block times a case's Reps back-to-back runs
// as a unit (benchcase.Case.Reps): amortizing over a block keeps the
// garbage-collection cost of the measured path inside the measurement
// (a single isolated run can dodge collection entirely, which would
// flatter allocation-heavy code), while the min over blocks rejects
// co-tenant noise spikes.
const (
	gateRounds = 5
	// calibReps is the calibration loop's block size.
	calibReps = 20
)

// The BENCH_*.json schema is a flat object: "parallelism", "calib_ns"
// (the calibration loop, minimum over rounds), "peak_rss_kb" and, per
// gated case, the three keys gateKeys names. peak_rss_kb is the
// process's peak resident set size after all measurements (0 where
// unsupported); it is recorded for trend inspection, not gated: RSS
// folds in the Go heap target, fixture construction and the runner's
// page cache behaviour, which vary across environments.
type gateResult map[string]float64

// gateKeys are the JSON keys of one gated case: its time (minimum over
// rounds), its normalized time — time divided by the calibration time,
// the machine-independent gate metric — and its heap allocations per
// run (minimum over rounds). Allocation counts are machine-independent
// and far more stable than times, so they catch allocation regressions
// (a dropped buffer reuse, a map rebuilt per candidate) that time-based
// gating under CI noise would let through.
func gateKeys(c benchcase.Case) (ns, norm, allocs string) {
	exp, _, _ := strings.Cut(c.Gate, "_")
	return c.Gate + "_ns", exp + "_norm", c.Gate + "_allocs_op"
}

// gateCases are the table's gated cases, in table order.
func gateCases() []benchcase.Case {
	var cs []benchcase.Case
	for _, c := range benchcase.Cases {
		if c.Gate != "" {
			cs = append(cs, c)
		}
	}
	return cs
}

// calibrate runs a fixed workload with the same resource profile as
// the engines under test — string rendering, map building and probing,
// slice sorting, allocation — but none of their code. Matching the
// profile matters: a pure register-resident loop would not slow down
// when the machine's memory subsystem is contended, so normalizing
// memory-bound engine times by it would swing with ambient load
// instead of cancelling it.
func calibrate() error {
	const n = 4096
	keys := make([]string, 0, n)
	m := make(map[string]int, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("cal(%d,%d)", i%64, i)
		keys = append(keys, k)
		m[k] = i
	}
	sort.Strings(keys)
	h := 0
	for _, k := range keys {
		h += m[k]
	}
	if h < 0 { // keep the workload observable
		fmt.Fprintln(io.Discard, h)
	}
	return nil
}

// minOver returns the minimum per-repetition duration and heap
// allocation count over n blocks of reps back-to-back runs of f. A GC
// runs before each block so one block's leftover garbage is not billed
// to the next; within a block the measured path pays for its own
// allocations. Durations and allocation counts take their minima
// independently: the minimum allocation block is the run least
// polluted by background goroutines, and the measured path's own
// allocations are identical across blocks.
func minOver(n, reps int, f func() error) (time.Duration, int64, error) {
	var best time.Duration
	var bestAllocs int64
	var ms runtime.MemStats
	for i := 0; i < n; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		startMallocs := ms.Mallocs
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			if err := f(); err != nil {
				return 0, 0, err
			}
		}
		d := time.Since(start) / time.Duration(reps)
		runtime.ReadMemStats(&ms)
		allocs := int64(ms.Mallocs-startMallocs) / int64(reps)
		if i == 0 || d < best {
			best = d
		}
		if i == 0 || allocs < bestAllocs {
			bestAllocs = allocs
		}
	}
	return best, bestAllocs, nil
}

// runGateMeasure measures the given gated cases (gateCases() outside
// tests) at parallelism par.
func runGateMeasure(cases []benchcase.Case, par int) (gateResult, error) {
	calib, _, err := minOver(gateRounds, calibReps, calibrate)
	if err != nil {
		return nil, err
	}
	res := gateResult{"parallelism": float64(par), "calib_ns": float64(calib.Nanoseconds())}
	for _, c := range cases {
		op, done, err := c.Setup(par)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		d, allocs, err := minOver(gateRounds, c.Reps, func() error {
			_, err := op()
			return err
		})
		done()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		ns, norm, allocsKey := gateKeys(c)
		res[ns] = float64(d.Nanoseconds())
		res[norm] = float64(d.Nanoseconds()) / float64(calib.Nanoseconds())
		res[allocsKey] = float64(allocs)
	}
	res["peak_rss_kb"] = float64(peakRSSKB())
	return res, nil
}

// gateCompare fails (non-nil error) when the two results were measured
// at different parallelism, when the baseline lacks a gated key, or
// when a normalized time or an allocation count regressed by more than
// threshold (0.25 = 25%) against the baseline. Allocation counts need
// no calibration, so the same threshold applies to them directly: a
// path that suddenly allocates 25% more per op has lost a buffer reuse
// somewhere.
func gateCompare(w io.Writer, cur, base gateResult, threshold float64) error {
	if base["parallelism"] != cur["parallelism"] {
		return fmt.Errorf("p2pbench: baseline was measured at parallelism=%v, current at %v; incomparable",
			base["parallelism"], cur["parallelism"])
	}
	var normKeys, allocKeys []string
	for _, c := range gateCases() {
		_, norm, allocs := gateKeys(c)
		normKeys, allocKeys = append(normKeys, norm), append(allocKeys, allocs)
	}
	for _, key := range append(normKeys, allocKeys...) {
		baseV, ok := base[key]
		if !ok || baseV <= 0 {
			return fmt.Errorf("p2pbench: baseline has no %s", key)
		}
		ratio := cur[key] / baseV
		fmt.Fprintf(w, "gate %-32s baseline=%.3f current=%.3f ratio=%.2f (limit %.2f)\n",
			key, baseV, cur[key], ratio, 1+threshold)
		if ratio > 1+threshold {
			return fmt.Errorf("p2pbench: %s regressed %.0f%% (%.3f -> %.3f, limit %.0f%%)",
				key, (ratio-1)*100, baseV, cur[key], threshold*100)
		}
	}
	return nil
}

// runGate is the -gate / -gate-out entry point: measure, optionally
// write BENCH_gate.json, optionally compare against a baseline file.
func runGate(w io.Writer, outPath, baselinePath string, threshold float64, par int) error {
	cur, err := runGateMeasure(gateCases(), par)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "gate measured at parallelism=%d, min of %d blocks: calib=%v peak-rss=%.0fKB\n",
		par, gateRounds, time.Duration(cur["calib_ns"]), cur["peak_rss_kb"])
	for _, c := range gateCases() {
		ns, _, allocs := gateKeys(c)
		fmt.Fprintf(w, "gate measured %-30s %-14v %.0f allocs/op\n", c.Name, time.Duration(cur[ns]), cur[allocs])
	}
	if outPath != "" {
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "gate wrote %s\n", outPath)
	}
	if baselinePath == "" {
		return nil
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base gateResult
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("p2pbench: bad baseline %s: %v", baselinePath, err)
	}
	if err := gateCompare(w, cur, base, threshold); err != nil {
		// One retry: a co-tenant noise burst during the measurement
		// window can push a normalized metric past the limit; a real
		// regression fails the fresh measurement too.
		fmt.Fprintf(w, "gate failed, re-measuring once: %v\n", err)
		cur, err = runGateMeasure(gateCases(), par)
		if err != nil {
			return err
		}
		return gateCompare(w, cur, base, threshold)
	}
	return nil
}
