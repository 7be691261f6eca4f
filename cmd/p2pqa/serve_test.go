package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a mutex-guarded bytes.Buffer: runServe writes to it
// from the test goroutine while the test polls it for the bound
// address.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// servingAddr waits for a -serve run to print its bound address.
func servingAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("server never started:\n%s", out.String())
		}
		s := out.String()
		if i := strings.Index(s, "at http://"); i >= 0 {
			rest := s[i+len("at http://"):]
			if j := strings.Index(rest, " ("); j >= 0 {
				return rest[:j]
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeShutdownSilentClient: a client that connects to the HTTP
// listener and never sends a request must not hold up shutdown — run
// returns nil well inside a second of the stop signal.
func TestServeShutdownSilentClient(t *testing.T) {
	path := writeSpec(t)
	serveStop = make(chan struct{})
	defer func() { serveStop = nil }()

	var out syncBuffer
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{"-system", path, "-peer", "P1", "-serve", "-http", "127.0.0.1:0"}, &out)
	}()
	addr := servingAddr(t, &out)
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The server accepts in arrival order: once a later request has been
	// answered, the silent connection is accepted and tracked too.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	start := time.Now()
	close(serveStop)
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v\noutput:\n%s", err, out.String())
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("shutdown took %v with a silent client, want < 1s", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not stop")
	}
}

// TestServeSmoke drives the full -serve lifecycle: start the server,
// fire concurrent HTTP queries interleaved with writes, read the
// metrics endpoint, then shut down cleanly via the test stop hook.
func TestServeSmoke(t *testing.T) {
	path := writeSpec(t)
	serveStop = make(chan struct{})
	defer func() { serveStop = nil }()

	var out syncBuffer
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{
			"-system", path, "-peer", "P1",
			"-serve", "-http", "127.0.0.1:0",
			"-max-concurrent", "4", "-stats",
		}, &out)
	}()

	base := "http://" + servingAddr(t, &out)

	// Concurrent queries interleaved with writes.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if w == 0 && i%2 == 0 {
					resp, err := http.PostForm(base+"/write",
						url.Values{"rel": {"r1"}, "tuple": {"smoke,s"}})
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("write status %d", resp.StatusCode)
					}
					continue
				}
				resp, err := http.Get(base + "/query?" + url.Values{
					"q": {"r1(X,Y)"}, "vars": {"X,Y"},
				}.Encode())
				if err != nil {
					t.Error(err)
					return
				}
				var qr struct {
					Count   int        `json:"count"`
					Answers [][]string `json:"answers"`
				}
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK || qr.Count == 0 {
					t.Errorf("query status=%d count=%d", resp.StatusCode, qr.Count)
				}
			}
		}(w)
	}
	wg.Wait()

	// The write must be visible: r1(smoke,s) is conflict-free, so it is
	// a certain answer of the very next query.
	resp, err := http.Get(base + "/query?" + url.Values{
		"q": {"r1(X,Y)"}, "vars": {"X,Y"},
	}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Answers [][]string `json:"answers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, a := range qr.Answers {
		if len(a) == 2 && a[0] == "smoke" && a[1] == "s" {
			found = true
		}
	}
	if !found {
		t.Fatalf("write not visible over HTTP: %v", qr.Answers)
	}

	// Metrics endpoint reflects the load.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	mb.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"serve_queries_total", "serve_writes_total 3", "node_solver_runs_total"} {
		if !strings.Contains(mb.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mb.String())
		}
	}

	// Clean shutdown through the stop hook.
	close(serveStop)
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not stop")
	}
	s := out.String()
	if !strings.Contains(s, "p2pqa: server stopped") {
		t.Fatalf("missing shutdown line:\n%s", s)
	}
	// -stats dumps the registry on exit.
	if !strings.Contains(s, "serve_query_latency_count") {
		t.Fatalf("missing -stats metrics dump:\n%s", s)
	}
}
