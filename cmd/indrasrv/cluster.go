package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"indra/internal/cluster"
	"indra/internal/obs"
	"indra/internal/serve"
)

// clusterFlags are the router-tier knobs (active with -cluster).
type clusterFlags struct {
	peers           *string
	localWorkers    *int
	probeInterval   *time.Duration
	failThreshold   *int
	reviveThreshold *int
	maxHops         *int
}

func registerClusterFlags() clusterFlags {
	return clusterFlags{
		peers:           flag.String("peers", "", "comma-separated worker base URLs to route across (cluster mode)"),
		localWorkers:    flag.Int("local-workers", 0, "in-process workers to spawn and route across (cluster mode)"),
		probeInterval:   flag.Duration("probe-interval", 500*time.Millisecond, "health-probe period"),
		failThreshold:   flag.Int("fail-threshold", 3, "consecutive failures before a worker is ejected from the ring"),
		reviveThreshold: flag.Int("revive-threshold", 2, "consecutive probe successes before an ejected worker is re-admitted"),
		maxHops:         flag.Int("max-hops", 3, "owner candidates tried per request (owner + failover successors)"),
	}
}

// clusterFront is the router tier: consistent-hash routing of cell
// keys across remote indrasrv processes (-peers) and/or in-process
// servers (-local-workers), which it drains after itself.
type clusterFront struct {
	*cluster.Router
	locals []*serve.Server
}

func newClusterFront(cf clusterFlags, srvCfg serve.Config) clusterFront {
	var workers []cluster.Worker
	var locals []*serve.Server
	for _, u := range strings.Split(*cf.peers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			workers = append(workers, cluster.NewHTTPWorker(u, nil))
		}
	}
	for i := 0; i < *cf.localWorkers; i++ {
		s := serve.New(srvCfg)
		locals = append(locals, s)
		workers = append(workers, cluster.NewLocalWorker(fmt.Sprintf("local-%d", i), s))
	}
	if len(workers) == 0 {
		fmt.Fprintln(os.Stderr, "indrasrv: -cluster needs -peers and/or -local-workers")
		os.Exit(2)
	}

	router, err := cluster.New(cluster.Config{
		ProbeInterval:   *cf.probeInterval,
		FailThreshold:   *cf.failThreshold,
		ReviveThreshold: *cf.reviveThreshold,
		MaxHops:         *cf.maxHops,
		Limits:          srvCfg.Limits,
	}, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "indrasrv: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "indrasrv: routing across %d workers\n", len(workers))
	return clusterFront{Router: router, locals: locals}
}

// Drain drains the router, then the local workers, so in-flight
// proxied cells finish first; remote peers own their own lifecycles.
// The snapshot is the router's.
func (c clusterFront) Drain(ctx context.Context) (obs.Snapshot, error) {
	snap, err := c.Router.Drain(ctx)
	var wg sync.WaitGroup
	for _, s := range c.locals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = s.Drain(ctx)
		}()
	}
	wg.Wait()
	return snap, err
}
