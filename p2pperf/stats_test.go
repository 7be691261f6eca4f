package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		beyond int
	}{
		{1, 0.5, 1, 0},
		{2, 0.5, 1, 1},
		{10, 0.5, 5, 5},
		{10, 0.95, 10, 0},
		{100, 0.95, 95, 5},
		{200, 0.95, 190, 10},
		{1000, 0.99, 990, 10},
	}
	for _, c := range cases {
		got, beyond := percentile(seq(c.n), c.q)
		if got != c.want || beyond != c.beyond {
			t.Errorf("percentile(1..%d, %g) = %g with %d beyond, want %g with %d", c.n, c.q, got, beyond, c.want, c.beyond)
		}
	}
	if v, b := percentile(nil, 0.5); v != 0 || b != 0 {
		t.Errorf("percentile(empty) = %g, %d", v, b)
	}
}

func TestSampleCountSelection(t *testing.T) {
	// p95 needs ten samples beyond it: 200 samples, not 199.
	if supported(199, 0.95) || !supported(200, 0.95) {
		t.Errorf("p95 support: 199 -> %v, 200 -> %v; want false, true", supported(199, 0.95), supported(200, 0.95))
	}
	if supported(999, 0.99) || !supported(1000, 0.99) {
		t.Error("p99 must need 1000 samples")
	}
	cands := []float64{0.5, 0.95, 0.99, 0.999}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{15, 0, false},
		{20, 0.5, true},
		{199, 0.5, true},
		{200, 0.95, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		q, ok := highestSupported(c.n, cands)
		if q != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %g, %v; want %g, %v", c.n, q, ok, c.want, c.ok)
		}
	}
}

func TestMillisSortsAndConverts(t *testing.T) {
	got := millis([]time.Duration{3 * time.Millisecond, time.Millisecond, 1500 * time.Microsecond})
	want := []float64{1, 1.5, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("millis = %v, want %v", got, want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
