package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/foquery"
	"repro/internal/peernet"
	"repro/internal/relation"
)

// newTestServer deploys Example1 as an in-proc overlay and serves P1.
func newTestServer(t *testing.T, cfg Config) (*Server, *peernet.Node) {
	t.Helper()
	sys := core.Example1System()
	tr := peernet.NewInProc()
	nodes, stop, err := peernet.StartMesh(sys, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	served := nodes["P1"]
	served.CacheTTL = time.Minute
	return New(served, cfg), served
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxConcurrent != runtime.GOMAXPROCS(0) {
		t.Fatalf("MaxConcurrent = %d, want GOMAXPROCS", c.MaxConcurrent)
	}
	if c.MaxQueue != 4*c.MaxConcurrent {
		t.Fatalf("MaxQueue = %d, want %d", c.MaxQueue, 4*c.MaxConcurrent)
	}
	if c.QueryParallelism < 1 {
		t.Fatalf("QueryParallelism = %d, want >= 1", c.QueryParallelism)
	}
	c = Config{MaxConcurrent: 2, MaxQueue: -1, QueryParallelism: 3}.withDefaults()
	if c.MaxConcurrent != 2 || c.MaxQueue != 0 || c.QueryParallelism != 3 {
		t.Fatalf("explicit config mangled: %+v", c)
	}
}

// TestAnswerMatchesNode pins the serving-plane contract: a served query
// returns exactly what the one-shot node path computes.
func TestAnswerMatchesNode(t *testing.T) {
	srv, node := newTestServer(t, Config{MaxConcurrent: 2})
	q := foquery.MustParse("r1(X,Y)")
	got, err := srv.Answer(q, []string{"X", "Y"}, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := node.PeerConsistentAnswersFor(q, []string{"X", "Y"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("served answers %v != node answers %v", got, want)
	}
	if srv.Registry().Counter("serve_queries_total").Value() != 1 {
		t.Fatal("query counter did not advance")
	}
}

// TestHTTPQueryWriteVisibility drives the full HTTP surface: query,
// write, immediate re-query (the write must be visible inside the TTL
// window), metrics and health.
func TestHTTPQueryWriteVisibility(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	query := func() queryResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query?" + url.Values{
			"q": {"r1(X,Y)"}, "vars": {"X,Y"},
		}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
		var qr queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}

	before := query()
	if before.Count == 0 {
		t.Fatal("expected some certain answers for r1(X,Y)")
	}

	resp, err := http.PostForm(ts.URL+"/write", url.Values{"rel": {"r1"}, "tuple": {"fresh,f"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write status %d", resp.StatusCode)
	}

	after := query()
	if after.Count != before.Count+1 {
		t.Fatalf("post-write count = %d, want %d", after.Count, before.Count+1)
	}
	found := false
	for _, a := range after.Answers {
		if len(a) == 2 && a[0] == "fresh" && a[1] == "f" {
			found = true
		}
	}
	if !found {
		t.Fatalf("write not visible to the next query: %v", after.Answers)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	nread, _ := mresp.Body.Read(body)
	mresp.Body.Close()
	text := string(body[:nread])
	for _, want := range []string{
		"serve_queries_total 2", "serve_writes_total 1", "serve_shed_total 0",
		"serve_query_latency_count 2", "node_solver_runs_total", "node_local_writes_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hresp.StatusCode)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"missing vars", func() (*http.Response, error) {
			return http.Get(ts.URL + "/query?q=r1(X,Y)")
		}, http.StatusBadRequest},
		{"bad query", func() (*http.Response, error) {
			return http.Get(ts.URL + "/query?" + url.Values{"q": {"not a query"}, "vars": {"X"}}.Encode())
		}, http.StatusBadRequest},
		{"bad transitive", func() (*http.Response, error) {
			return http.Get(ts.URL + "/query?" + url.Values{"q": {"r1(X,Y)"}, "vars": {"X,Y"}, "transitive": {"maybe"}}.Encode())
		}, http.StatusBadRequest},
		{"write GET", func() (*http.Response, error) {
			return http.Get(ts.URL + "/write?rel=r1&tuple=a,b")
		}, http.StatusMethodNotAllowed},
		{"write unknown rel", func() (*http.Response, error) {
			return http.PostForm(ts.URL+"/write", url.Values{"rel": {"nope"}, "tuple": {"a,b"}})
		}, http.StatusBadRequest},
		{"write bad arity", func() (*http.Response, error) {
			return http.PostForm(ts.URL+"/write", url.Values{"rel": {"r1"}, "tuple": {"a,b,c"}})
		}, http.StatusBadRequest},
	} {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestHTTPStoppingSheds: a draining server sheds /query like an
// overloaded one, 503 with Retry-After, not as an engine failure.
func TestHTTPStoppingSheds(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxConcurrent: 1})
	if !srv.Stop() {
		t.Fatal("Stop of an idle server reported a drain timeout")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/query?" + url.Values{"q": {"r1(X,Y)"}, "vars": {"X,Y"}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status after Stop = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}
}

// TestShedDeterministic proves the admission bound without racing real
// queries: with the pool slot taken by hand and no queue, Answer must
// shed immediately, and the HTTP surface must translate that into 503 +
// Retry-After. Draining the slot restores service.
func TestShedDeterministic(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1})
	srv.sem <- struct{}{} // occupy the only pool slot

	q := foquery.MustParse("r1(X,Y)")
	if _, err := srv.Answer(q, []string{"X", "Y"}, false); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if srv.reg.Counter("serve_shed_total").Value() != 1 {
		t.Fatal("shed counter did not advance")
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/query?" + url.Values{"q": {"r1(X,Y)"}, "vars": {"X,Y"}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}

	<-srv.sem // free the slot
	if _, err := srv.Answer(q, []string{"X", "Y"}, false); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

// TestQueueAdmitsThenSheds exercises the middle admission tier: one
// query slot taken, one queued waiter allowed, the next shed.
func TestQueueAdmitsThenSheds(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	srv.sem <- struct{}{} // pool full

	queued := make(chan []relation.Tuple, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ans, err := srv.Answer(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, false)
		if err != nil {
			t.Error(err)
			return
		}
		queued <- ans
	}()
	// Wait for the goroutine to park in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for srv.reg.Gauge("serve_queue_depth").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued query never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Queue full: the next query is shed.
	if _, err := srv.Answer(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, false); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}

	<-srv.sem // free the slot; the queued query runs
	wg.Wait()
	if ans := <-queued; len(ans) == 0 {
		t.Fatal("queued query returned no answers")
	}
}

// TestConcurrentMixedLoad hammers the server with parallel queries and
// interleaved writes under the race detector and checks the bookkeeping
// adds up afterwards.
func TestConcurrentMixedLoad(t *testing.T) {
	srv, node := newTestServer(t, Config{MaxConcurrent: 4, MaxQueue: 64})
	q := foquery.MustParse("r1(X,Y)")
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w == 0 && i%3 == 0 {
					if err := srv.Write("r1", []string{"w", "x"}); err != nil {
						t.Error(err)
					}
					continue
				}
				if _, err := srv.Answer(q, []string{"X", "Y"}, false); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	queries := srv.reg.Counter("serve_queries_total").Value()
	if queries != 56 { // 6*10 minus worker 0's 4 writes
		t.Fatalf("queries = %d, want 56", queries)
	}
	if srv.reg.Counter("serve_writes_total").Value() != 4 {
		t.Fatalf("writes = %d", srv.reg.Counter("serve_writes_total").Value())
	}
	if got := srv.reg.Histogram("serve_query_latency").Count(); got != queries {
		t.Fatalf("latency count = %d, want %d", got, queries)
	}
	if srv.reg.Gauge("serve_inflight").Value() != 0 || srv.reg.Gauge("serve_queue_depth").Value() != 0 {
		t.Fatal("gauges must settle to zero after the load")
	}
	// Writes are idempotent re-inserts of the same fact after the first,
	// but every call still goes through UpdateLocal.
	if node.LocalWrites() != 4 {
		t.Fatalf("node writes = %d", node.LocalWrites())
	}
}

// TestStopDrainsQueuedIncr: Stop lets both the in-flight query and a
// request still waiting in the admission queue complete, then reports
// drained; arrivals after Stop are shed with ErrStopping.
func TestStopDrainsQueuedIncr(t *testing.T) {
	sys := core.Example1System()
	tr := peernet.NewInProc()
	tr.Latency = 20 * time.Millisecond // remote fan-out makes the first query slow
	nodes, stop, err := peernet.StartMesh(sys, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	srv := New(nodes["P1"], Config{MaxConcurrent: 1, MaxQueue: 4, DrainTimeout: 5 * time.Second})

	q := foquery.MustParse("r1(X,Y)")
	vars := []string{"X", "Y"}
	type result struct {
		ans []relation.Tuple
		err error
	}
	results := make(chan result, 2)
	run := func() {
		ans, err := srv.Answer(q, vars, false)
		results <- result{ans, err}
	}
	go run() // slow leader: occupies the MaxConcurrent=1 pool
	deadline := time.Now().Add(2 * time.Second)
	for srv.inflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	go run() // follower: waits in the admission queue
	for srv.queued.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if !srv.Stop() {
		t.Fatal("Stop reported a drain timeout")
	}
	if atomic.LoadInt32(&srv.stopping) == 0 {
		t.Fatal("Stop should mark the server stopping")
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("drained query %d failed: %v", i, r.err)
		}
		if len(r.ans) == 0 {
			t.Fatalf("drained query %d returned no answers", i)
		}
	}

	// New arrivals after Stop are shed with the draining error.
	if _, err := srv.Answer(q, vars, false); !errors.Is(err, ErrStopping) {
		t.Fatalf("post-Stop query: err = %v, want ErrStopping", err)
	}
}

// TestStopDrainTimeoutIncr: a query slower than DrainTimeout makes
// Stop return false without cancelling the work.
func TestStopDrainTimeoutIncr(t *testing.T) {
	sys := core.Example1System()
	tr := peernet.NewInProc()
	tr.Latency = 150 * time.Millisecond
	nodes, stop, err := peernet.StartMesh(sys, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	srv := New(nodes["P1"], Config{MaxConcurrent: 1, DrainTimeout: 10 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Answer(foquery.MustParse("r1(X,Y)"), []string{"X", "Y"}, false)
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for srv.inflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	if srv.Stop() {
		t.Fatal("Stop should have timed out with the query still running")
	}
	if err := <-done; err != nil {
		t.Fatalf("the slow query must still complete: %v", err)
	}
}
