package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/peernet"
	"repro/internal/serve"
)

// Indices of the counters read from the root node, its transport and
// the serving plane (see deployment.counters).
const (
	cAnsHits = iota
	cAnsMisses
	cRelHits
	cRelMisses
	cCoalesced
	cSolverRuns
	cPatched
	cFallbacks
	cSearches
	cLocalized
	cComponents
	cCalls
	cSentBytes
	cRecvBytes
	cShed
	cAnswered    // serve_query_latency observations
	cAnswerNanos // their summed duration
	nCounters
)

// counters is one reading of every counter the benchmark watches.
type counters [nCounters]int64

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// tracedTransport is the root node's transport: TCP, plus a call count
// that is always kept and, while a tracer is installed, one span and
// the gob sizes (through peernet.Meter) per call.
type tracedTransport struct {
	tcp   peernet.Transport
	meter *peernet.Meter
	calls atomic.Int64
	tr    atomic.Pointer[tracer]
}

func newTracedTransport(tcp peernet.Transport) *tracedTransport {
	t := &tracedTransport{tcp: tcp}
	t.meter = &peernet.Meter{T: callTimer{t}}
	return t
}

// Listen implements peernet.Transport.
func (t *tracedTransport) Listen(addr string, h peernet.Handler) (string, func(), error) {
	return t.tcp.Listen(addr, h)
}

// Call implements peernet.Transport.
func (t *tracedTransport) Call(addr string, req peernet.Request) (peernet.Response, error) {
	t.calls.Add(1)
	if t.tr.Load() == nil {
		return t.tcp.Call(addr, req)
	}
	return t.meter.Call(addr, req)
}

// callTimer sits under the meter, so the span covers the TCP call and
// not the meter's own size accounting.
type callTimer struct{ t *tracedTransport }

func (c callTimer) Listen(addr string, h peernet.Handler) (string, func(), error) {
	return c.t.tcp.Listen(addr, h)
}

func (c callTimer) Call(addr string, req peernet.Request) (peernet.Response, error) {
	tr := c.t.tr.Load()
	start := time.Now()
	resp, err := c.t.tcp.Call(addr, req)
	end := time.Now()
	if tr != nil {
		tr.record(span{Req: tr.req.Load(), ID: tr.newID(), Parent: tr.cur.Load(),
			Name: "peernet.call", Start: tr.since(start), End: tr.since(end)})
	}
	return resp, err
}

// Headers by which the client tells the handler wrapper which request
// and which round-trip span a traced HTTP request belongs to.
const (
	hdrReq  = "X-P2pperf-Req"
	hdrSpan = "X-P2pperf-Span"
)

// route is what the root's counters did while one traced request was
// in the handler.
type route struct {
	req   int64
	delta counters
}

// tracedHandler wraps serve.Server.Handler(). Untraced, it only loads
// an atomic pointer; traced, it records a serve.handler span and the
// counter movement of each request.
type tracedHandler struct {
	next  http.Handler
	probe func() counters
	tr    atomic.Pointer[tracer]

	mu     sync.Mutex
	routes []route
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	id := tr.newID()
	before := h.probe()
	leave := tr.enter(req, id)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	leave()
	after := h.probe()
	tr.record(span{Req: req, ID: id, Parent: parent, Name: "serve.handler", Start: tr.since(start), End: tr.since(end)})
	h.mu.Lock()
	h.routes = append(h.routes, route{req: req, delta: after.minus(before)})
	h.mu.Unlock()
}

// takeRoutes returns and clears the recorded routes.
func (h *tracedHandler) takeRoutes() []route {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.routes
	h.routes = nil
	return out
}

// deployment is one running overlay: every peer a peernet.Node on TCP
// over loopback, the root served by serve.Server over net/http, and a
// keep-alive HTTP client limited to `conns` connections.
type deployment struct {
	w      *workload
	sys    *core.System
	nodes  []*peernet.Node
	root   *peernet.Node
	rootTr *tracedTransport
	srv    *serve.Server
	hook   *tracedHandler
	hist   *metrics.Histogram
	hsrv   *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

// deploy generates the workload's system from seed and starts it.
func deploy(w *workload, seed int64, conns int) (*deployment, error) {
	d := &deployment{w: w, sys: w.build(seed)}
	tcp := &peernet.TCP{}
	for _, id := range d.sys.Peers() {
		p, _ := d.sys.Peer(id)
		var tr peernet.Transport = tcp
		if id == w.root {
			d.rootTr = newTracedTransport(tcp)
			tr = d.rootTr
		}
		n := peernet.NewNode(p, tr, nil)
		if err := n.Start("127.0.0.1:0"); err != nil {
			d.close()
			return nil, fmt.Errorf("start peer %s: %w", id, err)
		}
		d.nodes = append(d.nodes, n)
		if id == w.root {
			d.root = n
		}
	}
	if d.root == nil {
		d.close()
		return nil, fmt.Errorf("workload %s has no peer %s", w.name, w.root)
	}
	for _, n := range d.nodes {
		for _, m := range d.nodes {
			if n != m {
				n.SetNeighbor(m.Peer.ID, m.BoundAddr())
			}
		}
	}
	d.root.CacheTTL = w.cacheTTL
	d.srv = serve.New(d.root, serve.Config{})
	d.hist = d.srv.Registry().Histogram("serve_query_latency")
	d.hook = &tracedHandler{next: d.srv.Handler(), probe: d.counters}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, fmt.Errorf("http listen: %w", err)
	}
	d.base = "http://" + ln.Addr().String()
	d.hsrv = &http.Server{Handler: d.hook, ReadHeaderTimeout: 10 * time.Second}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		_ = d.hsrv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	d.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return d, nil
}

// close stops the HTTP server, the serving plane and every node, and
// waits for the HTTP serve loop to exit.
func (d *deployment) close() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if d.hsrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = d.hsrv.Shutdown(ctx) // on timeout, Close below cuts what is left
		cancel()
		d.hsrv.Close()
		<-d.served
	}
	if d.srv != nil {
		d.srv.Stop()
	}
	for _, n := range d.nodes {
		n.Stop()
	}
}

// counters reads every watched counter.
func (d *deployment) counters() counters {
	var c counters
	c[cAnsHits], c[cAnsMisses] = d.root.AnswerCacheStats()
	_, _, c[cRelHits], c[cRelMisses] = d.root.CacheStats()
	_, c[cCoalesced] = d.root.CoalesceStats()
	c[cSolverRuns] = d.root.SolverRuns()
	c[cPatched], _, c[cFallbacks] = d.root.IncrStats()
	c[cSearches], c[cLocalized], c[cComponents] = d.root.RepairStats()
	c[cCalls] = d.rootTr.calls.Load()
	_, c[cSentBytes], c[cRecvBytes] = d.rootTr.meter.Stats()
	c[cShed] = d.srv.Registry().Counter("serve_shed_total").Value()
	n := d.hist.Count()
	c[cAnswered] = n
	c[cAnswerNanos] = int64(d.hist.Mean()) * n
	return c
}

// setTracer installs (or, with nil, removes) the tracer on the root's
// transport and on the HTTP handler.
func (d *deployment) setTracer(tr *tracer) {
	d.rootTr.tr.Store(tr)
	d.hook.tr.Store(tr)
}

// errShed marks a request the serving plane refused (HTTP 503).
var errShed = errors.New("request shed (HTTP 503)")

// queryBody is the JSON shape of a /query response.
type queryBody struct {
	Count   int        `json:"count"`
	Answers [][]string `json:"answers"`
}

// do sends one operation over HTTP and returns the response body after
// checking its status and decoding it. With tr set, the round trip is
// recorded as span `id` of request `req`.
func (d *deployment) do(o *op, tr *tracer, req int64) ([]byte, error) {
	method := http.MethodGet
	if o.write {
		method = http.MethodPost
	}
	hreq, err := http.NewRequest(method, d.base+o.target, nil)
	if err != nil {
		return nil, err
	}
	var id int64
	var start time.Time
	if tr != nil {
		id = tr.newID()
		hreq.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hreq.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
		start = time.Now()
	}
	resp, err := d.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if tr != nil {
		tr.record(span{Req: req, ID: id, Name: "http.roundtrip", Start: tr.since(start), End: tr.since(time.Now())})
	}
	if err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return nil, errShed
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("%s %s: status %d: %s", method, o.target, resp.StatusCode, bytes.TrimSpace(body))
	}
	if o.write {
		var ok map[string]bool
		if err := json.Unmarshal(body, &ok); err != nil || !ok["ok"] {
			return nil, fmt.Errorf("write %s: bad response %q", o.target, body)
		}
		return body, nil
	}
	var qb queryBody
	if err := json.Unmarshal(body, &qb); err != nil {
		return nil, fmt.Errorf("query %s: undecodable response: %w", o.target, err)
	}
	if qb.Count != len(qb.Answers) {
		return nil, fmt.Errorf("query %s: count %d but %d answers", o.target, qb.Count, len(qb.Answers))
	}
	return body, nil
}
