// Command indrasrv serves the INDRA experiment suite over HTTP: a
// long-running simulation-as-a-service front-end. By default it is a
// worker, executing cells behind a canonical cell-key result cache
// (single-flight) and admission control; with -cluster it is a router,
// consistent-hashing every cell to its owning worker (given by -peers
// URLs and/or -local-workers in-process servers) with cluster-wide
// single-flight and health-checked failover (see cluster.go): a dead
// worker's keys re-simulate once on their new owners, since a worker
// caches only what it simulated itself. Both roles serve the same
// front, so clients cannot tell them apart.
//
// Usage:
//
//	indrasrv -addr :8080
//	indrasrv -addr :8080 -workers 8 -queue 32 -cell-workers 1
//	indrasrv -cluster -addr :8090 -peers http://h1:8080,http://h2:8080
//
// Endpoints (both roles):
//
//	GET  /healthz          liveness (503 while draining)
//	GET  /metrics          obs registry snapshot (JSON)
//	GET  /v1/experiments   registered experiment ids
//	GET  /v1/cell?key=K    run/fetch one cell by canonical key
//	POST /v1/cell          {"key": "fig9/req=3/scale=1/seed=1"}
//	POST /v1/cells         {"cells": [K, ...]} → NDJSON as cells finish
//
// plus GET /v1/cluster (topology and routing latency) on a router.
// Request bodies are capped at 1 MiB (413 beyond).
//
// A cell's output is byte-identical to `indrabench -experiment <id>`
// with the same requests/scale/seed. Identical concurrent requests
// coalesce onto one simulation; full queues answer 429 with a
// Retry-After hint; per-request deadlines answer 504. In either role
// SIGTERM/SIGINT drains gracefully: stop accepting, finish in-flight
// requests, flush the final metrics snapshot to stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"indra/internal/obs"
	"indra/internal/serve"
)

// front is what both roles serve: a worker (*serve.Server) or a router
// (clusterFront).
type front interface {
	Serve(net.Listener) error
	Drain(context.Context) (obs.Snapshot, error)
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "concurrent simulation cells (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "admission queue depth beyond the worker slots (0 = 4x workers)")
		cellWorkers  = flag.Int("cell-workers", 1, "worker count inside each cell's own experiment fan-out (output is identical)")
		shards       = flag.Int("cache-shards", 16, "result cache shards")
		entries      = flag.Int("cache-entries", 4096, "result cache entry bound")
		timeout      = flag.Duration("timeout", 120*time.Second, "default per-request deadline")
		maxRequests  = flag.Int("max-requests", 64, "largest per-cell request count a client may ask for")
		maxScale     = flag.Float64("max-scale", 10, "largest workload scale a client may ask for")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain bound after SIGTERM")
		clusterMode  = flag.Bool("cluster", false, "serve the router tier instead of a worker (see -peers, -local-workers)")
	)
	cf := registerClusterFlags()
	flag.Parse()

	srvCfg := serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CellWorkers:  *cellWorkers,
		CacheShards:  *shards,
		CacheEntries: *entries,
		Limits: serve.Limits{
			DefaultTimeout: *timeout,
			MaxRequests:    *maxRequests,
			MaxScale:       *maxScale,
		},
	}
	var f front
	if *clusterMode {
		f = newClusterFront(cf, srvCfg)
	} else {
		f = serve.New(srvCfg)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "indrasrv: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "indrasrv: serving on %s\n", l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- f.Serve(l) }()

	select {
	case err := <-errCh:
		// Listener failure before any signal: nothing to drain.
		fmt.Fprintf(os.Stderr, "indrasrv: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, finish in-flight requests within
	// the drain budget, then flush the final metrics snapshot.
	fmt.Fprintf(os.Stderr, "indrasrv: draining (up to %s)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	snap, err := f.Drain(dctx)
	<-errCh // Serve has returned http.ErrServerClosed by now
	if out, jerr := json.Marshal(snap); jerr == nil {
		fmt.Fprintf(os.Stderr, "indrasrv: final metrics: %s\n", out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "indrasrv: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "indrasrv: drained cleanly")
}
