package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/peernet"
	"repro/internal/serve"
)

// serveParams carries the -serve flags into runServe.
type serveParams struct {
	httpAddr      string
	cacheTTL      time.Duration
	parallelism   int
	maxConcurrent int
	maxQueue      int
	transitive    bool
	stats         bool
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a stalled client cannot pin a connection.
const readHeaderTimeout = 10 * time.Second

// shutdownGrace bounds the graceful HTTP shutdown that follows the
// admission pool's drain. http.Server.Shutdown counts a connection that
// has not sent a request yet as active for up to 5s, so whatever is
// still open when the grace ends is cut with Close.
const shutdownGrace = 250 * time.Millisecond

// serveStop, when non-nil, stops a -serve run when closed; tests set it
// to drive startup/shutdown. The CLI leaves it nil and waits for
// SIGINT/SIGTERM (a nil channel blocks forever in the select below).
var serveStop chan struct{}

// runServe deploys every peer of the system as an in-process node
// (full neighbour mesh, like -delegate) and serves the queried peer's
// node over HTTP until a signal arrives. The served node runs with the
// TTL caches on: local writes through /write invalidate them
// immediately, remote peers' data may be up to -cache-ttl stale.
func runServe(sys *core.System, id core.PeerID, out io.Writer, p serveParams) error {
	if _, ok := sys.Peer(id); !ok {
		return fmt.Errorf("unknown peer %s", id)
	}
	tr := peernet.NewInProc()
	nodes := map[core.PeerID]*peernet.Node{}
	for _, pid := range sys.Peers() {
		peer, _ := sys.Peer(pid)
		n := peernet.NewNode(peer, tr, nil)
		n.Parallelism = p.parallelism
		if pid == id {
			n.CacheTTL = p.cacheTTL
		}
		if err := n.Start(":0"); err != nil {
			return err
		}
		defer n.Stop()
		nodes[pid] = n
	}
	for _, n := range nodes {
		for _, m := range nodes {
			if n != m {
				n.SetNeighbor(m.Peer.ID, m.BoundAddr())
			}
		}
	}

	srv := serve.New(nodes[id], serve.Config{
		MaxConcurrent: p.maxConcurrent,
		MaxQueue:      p.maxQueue,
		Transitive:    p.transitive,
	})
	ln, err := net.Listen("tcp", p.httpAddr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	cfg := srv.Config()
	fmt.Fprintf(out, "p2pqa: serving peer %s at http://%s (max-concurrent=%d max-queue=%d query-parallelism=%d cache-ttl=%s)\n",
		id, ln.Addr(), cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueryParallelism, p.cacheTTL)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-serveStop:
	case err := <-errCh:
		return err
	}

	// Drain the admission pool first — queued queries finish, new
	// arrivals are shed — then close the HTTP listener.
	if !srv.Stop() {
		fmt.Fprintln(out, "p2pqa: drain timeout, queries still running")
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if err := httpSrv.Close(); err != nil {
			return err
		}
	}
	if p.stats {
		srv.WriteMetrics(out)
	}
	fmt.Fprintln(out, "p2pqa: server stopped")
	return nil
}
