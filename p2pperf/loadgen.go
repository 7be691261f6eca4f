package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// opTiming is the outcome of one operation of a load phase.
type opTiming struct {
	Index int
	// Due is when the operation was meant to be sent: its slot in the
	// open-loop schedule, or its send time in a closed loop.
	Due  time.Time
	Sent time.Time
	Done time.Time
	// Late is how long after Due an idle sender woke up to send: the
	// generator's own scheduling error. It is 0 for a backlogged send.
	Late time.Duration
	// Backlog marks a send whose sender was still busy at Due; the wait
	// shows in Latency, since that is timed from Due.
	Backlog bool
	Err     error
}

// Latency is the time from the intended send time to completion, so a
// stalled server is charged for the requests queued behind the stall.
func (t opTiming) Latency() time.Duration { return t.Done.Sub(t.Due) }

// openLoop sends n operations on a fixed schedule from `senders`
// goroutines: operation i is due at start + i/rate whatever happened to
// the earlier ones. do(i) performs operation i. It returns once every
// operation has completed.
func openLoop(n int, rate float64, senders int, do func(i int) error) []opTiming {
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]opTiming, n)
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t := opTiming{Index: i, Due: start.Add(time.Duration(i) * interval)}
				if wait := time.Until(t.Due); wait > 0 {
					time.Sleep(wait)
					t.Sent = time.Now()
					t.Late = t.Sent.Sub(t.Due)
				} else {
					t.Sent = time.Now()
					t.Backlog = true
				}
				t.Err = do(i)
				t.Done = time.Now()
				out[i] = t
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop performs n operations from `clients` goroutines, each
// sending its next operation as soon as its previous one completes. It
// returns the timings and the wall time of the whole phase.
func closedLoop(n, clients int, do func(i int) error) ([]opTiming, time.Duration) {
	out := make([]opTiming, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				now := time.Now()
				t := opTiming{Index: i, Due: now, Sent: now}
				t.Err = do(i)
				t.Done = time.Now()
				out[i] = t
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}
