package peernet

import (
	"encoding/gob"
	"net"
	"sync"
	"testing"
	"time"
)

// tempNetErr is a transient net.Error, the shape Accept returns under
// fd exhaustion or aborted handshakes.
type tempNetErr struct{}

func (tempNetErr) Error() string   { return "transient accept failure" }
func (tempNetErr) Timeout() bool   { return true }
func (tempNetErr) Temporary() bool { return true }

// scriptedListener replays a script of Accept results, then blocks
// until closed. It counts Accept calls so tests can detect spinning.
type scriptedListener struct {
	mu      sync.Mutex
	script  []func() (net.Conn, error)
	calls   int
	blockCh chan struct{}
	once    sync.Once
}

func newScriptedListener(script ...func() (net.Conn, error)) *scriptedListener {
	return &scriptedListener{script: script, blockCh: make(chan struct{})}
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	l.calls++
	var next func() (net.Conn, error)
	if len(l.script) > 0 {
		next = l.script[0]
		l.script = l.script[1:]
	}
	l.mu.Unlock()
	if next != nil {
		return next()
	}
	<-l.blockCh
	return nil, net.ErrClosed
}

func (l *scriptedListener) Calls() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls
}

func (l *scriptedListener) Close() error {
	l.once.Do(func() { close(l.blockCh) })
	return nil
}

func (l *scriptedListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

// TestAcceptLoopBacksOffOnTransientErrors: a listener failing every
// Accept with a transient error must be polled on the backoff schedule,
// not spun on. 80ms of constant failure admits at most ~6 attempts
// (5+10+20+40ms...); a spinning loop would make thousands.
func TestAcceptLoopBacksOffOnTransientErrors(t *testing.T) {
	transient := func() (net.Conn, error) { return nil, tempNetErr{} }
	script := make([]func() (net.Conn, error), 0, 10000)
	for i := 0; i < 10000; i++ {
		script = append(script, transient)
	}
	ln := newScriptedListener(script...)
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		acceptLoop(ln, func(Request) Response { return Response{} }, done, time.Second)
		close(exited)
	}()
	time.Sleep(80 * time.Millisecond)
	calls := ln.Calls()
	close(done)
	ln.Close()
	select {
	case <-exited:
	case <-time.After(2 * time.Second):
		t.Fatal("acceptLoop did not exit after shutdown")
	}
	if calls > 20 {
		t.Fatalf("accept loop is spinning: %d Accept calls in 80ms", calls)
	}
	if calls < 2 {
		t.Fatalf("accept loop stopped retrying transient errors: %d calls", calls)
	}
}

// TestAcceptLoopExitsOnPermanentError: an Accept error that is not a
// net.Error means the listener is broken — the loop must exit rather
// than retry forever.
func TestAcceptLoopExitsOnPermanentError(t *testing.T) {
	ln := newScriptedListener(func() (net.Conn, error) {
		return nil, errPermanent
	})
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	exited := make(chan struct{})
	go func() {
		acceptLoop(ln, func(Request) Response { return Response{} }, done, time.Second)
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(2 * time.Second):
		t.Fatal("acceptLoop did not exit on a permanent error")
	}
	if c := ln.Calls(); c != 1 {
		t.Fatalf("permanent error should stop the loop after one call, got %d", c)
	}
}

var errPermanent = &permanentErr{}

type permanentErr struct{}

func (*permanentErr) Error() string { return "listener torn down" }

// TestAcceptLoopRecoversAfterTransientError: transient failures delay
// but do not disable serving — a connection arriving after two errors
// is still served.
func TestAcceptLoopRecoversAfterTransientError(t *testing.T) {
	server, client := net.Pipe()
	transient := func() (net.Conn, error) { return nil, tempNetErr{} }
	ln := newScriptedListener(transient, transient,
		func() (net.Conn, error) { return server, nil })
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	go acceptLoop(ln, func(req Request) Response {
		return Response{Spec: "served-" + string(req.Op)}
	}, done, time.Second)
	if err := gob.NewEncoder(client).Encode(&Request{Op: OpExportSpec}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := gob.NewDecoder(client).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Spec != "served-exportspec" {
		t.Fatalf("resp = %+v", resp)
	}
}

// TestServeConnIdleClientTimeout: a client that connects and never
// sends a request is disconnected once the IO timeout elapses, instead
// of pinning the serving goroutine forever.
func TestServeConnIdleClientTimeout(t *testing.T) {
	tr := &TCP{IOTimeout: 50 * time.Millisecond}
	bound, closer, err := tr.Listen("127.0.0.1:0", func(Request) Response { return Response{} })
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	conn, err := net.Dial("tcp", bound)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing; the server must close the connection on its own.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server should have closed the idle connection")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("idle connection lingered %v, want closure near the 50ms IO timeout", elapsed)
	}
}
