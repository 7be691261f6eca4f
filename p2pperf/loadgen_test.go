package main

import (
	"sync"
	"testing"
	"time"
)

func TestOpenLoopDueTimes(t *testing.T) {
	const n, rate = 20, 200.0 // one op every 5ms
	ts := openLoop(n, rate, 2, func(int) error { return nil })
	interval := time.Duration(float64(time.Second) / rate)
	for i, tm := range ts {
		if tm.Index != i {
			t.Fatalf("timing %d has index %d", i, tm.Index)
		}
		if i > 0 {
			if gap := tm.Due.Sub(ts[i-1].Due); gap != interval {
				t.Fatalf("due gap %d = %v, want %v", i, gap, interval)
			}
		}
		if tm.Sent.Before(tm.Due) {
			t.Fatalf("op %d sent %v before it was due", i, tm.Due.Sub(tm.Sent))
		}
		if !tm.Backlog && tm.Late != tm.Sent.Sub(tm.Due) {
			t.Fatalf("op %d lateness %v, want sent-due %v", i, tm.Late, tm.Sent.Sub(tm.Due))
		}
	}
}

// A server that stalls on one request must be charged, through the
// intended send times, for every request scheduled behind the stall —
// not only for the stalled one.
func TestOpenLoopLatencyFromIntendedSendTime(t *testing.T) {
	const n, rate = 10, 100.0 // due every 10ms
	const stall = 80 * time.Millisecond
	var mu sync.Mutex
	service := map[int]time.Duration{}
	ts := openLoop(n, rate, 1, func(i int) error {
		start := time.Now()
		if i == 2 {
			time.Sleep(stall)
		}
		mu.Lock()
		service[i] = time.Since(start)
		mu.Unlock()
		return nil
	})
	stalled := ts[2]
	if stalled.Latency() < stall {
		t.Fatalf("stalled op latency %v, want >= %v", stalled.Latency(), stall)
	}
	// Ops 3..9 were due 10..70ms after op 2 and had to wait for it: each
	// is backlogged and its latency is far above its own service time.
	for i := 3; i < 8; i++ {
		tm := ts[i]
		if !tm.Backlog {
			t.Errorf("op %d not marked backlogged", i)
		}
		wantMin := stall - time.Duration(i-2)*10*time.Millisecond
		if tm.Latency() < wantMin-2*time.Millisecond {
			t.Errorf("op %d latency %v, want about %v (service %v)", i, tm.Latency(), wantMin, service[i])
		}
		if tm.Latency() < 4*service[i] {
			t.Errorf("op %d latency %v barely exceeds its service time %v", i, tm.Latency(), service[i])
		}
	}
	if ts[0].Backlog || ts[1].Backlog {
		t.Error("ops before the stall must be sent on time")
	}
}

func TestClosedLoopRunsEveryOpOnce(t *testing.T) {
	const n = 50
	var mu sync.Mutex
	seen := map[int]int{}
	ts, elapsed := closedLoop(n, 2, func(i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	})
	if len(ts) != n || len(seen) != n {
		t.Fatalf("%d timings, %d distinct ops, want %d", len(ts), len(seen), n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("op %d ran %d times", i, c)
		}
	}
	if elapsed <= 0 {
		t.Fatalf("elapsed %v", elapsed)
	}
}
