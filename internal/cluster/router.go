package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"indra"
	"indra/internal/obs"
	"indra/internal/serve"
)

// ringVnodes is the virtual points each worker contributes to the hash
// ring. It is a constant, not a setting, so every router derives the
// same ring from the same member set.
const ringVnodes = 128

// Config tunes the router tier. The zero value probes health every
// 500ms, ejects after 3 failures, revives after 2 successes, and tries
// up to 3 owner candidates per request.
type Config struct {
	// ProbeInterval is the health-probe period (0 selects 500ms);
	// ProbeTimeout bounds one probe (0 selects 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold consecutive failures (probes or proxied requests)
	// eject a worker from the ring (0 selects 3); ReviveThreshold
	// consecutive probe successes re-admit it (0 selects 2).
	FailThreshold   int
	ReviveThreshold int
	// MaxHops bounds the owner candidates tried per request: the key's
	// owner first, then its deterministic failover successors
	// (0 selects 3).
	MaxHops int
	// Limits bound each request at the router; set them to the
	// workers' limits so bad cells are rejected without a proxy hop.
	serve.Limits
	// Reg receives the router's metrics (nil creates a fresh registry).
	Reg *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ReviveThreshold <= 0 {
		c.ReviveThreshold = 2
	}
	if c.MaxHops <= 0 {
		c.MaxHops = 3
	}
	if c.Reg == nil {
		c.Reg = obs.NewRegistry()
	}
	return c
}

// member is one worker plus its health bookkeeping (guarded by
// Router.mu). consecFail counts probe and proxied-request failures
// since the last success; consecOK counts probe successes since the
// last failure.
type member struct {
	w          Worker
	alive      bool
	consecFail int
	consecOK   int
}

// flight is one in-flight key at the router: concurrent identical
// requests coalesce onto the first (the leader proxies to the owner,
// followers wait on done). Entries are removed on completion — repeat
// requests go back to the owner, whose cache answers them. Unlike the
// worker's result cache this retains nothing, and joins count in
// cluster.coalesced rather than serve.cache.hits.
type flight struct {
	done chan struct{}
	res  serve.Cell
}

// Router is the cluster's executor behind the shared serve.Front: it
// owns the hash ring, proxies each cell to its owner with failover,
// health-checks the members, and adds GET /v1/cluster. Clients cannot
// tell a router from a worker.
type Router struct {
	*serve.Front
	cfg Config
	m   metrics

	mu      sync.Mutex
	members map[string]*member
	ring    *Ring // alive members only

	sfMu sync.Mutex
	sf   map[string]*flight

	probeStop chan struct{}
	probeDone chan struct{}
	stopOnce  sync.Once
}

// New builds a router over the given workers (all initially alive) and
// starts the health prober. Stop with Drain.
func New(cfg Config, workers []Worker) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(workers) == 0 {
		return nil, errors.New("cluster: no workers")
	}
	r := &Router{
		cfg:       cfg,
		m:         newClusterMetrics(cfg.Reg),
		members:   make(map[string]*member, len(workers)),
		sf:        make(map[string]*flight),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	ids := make([]string, 0, len(workers))
	for _, w := range workers {
		if _, dup := r.members[w.ID()]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker id %q", w.ID())
		}
		r.members[w.ID()] = &member{w: w, alive: true}
		ids = append(ids, w.ID())
	}
	r.ring = NewRing(ringVnodes, ids)
	r.m.aliveWorkers.Set(uint64(len(ids)))
	r.Front = serve.NewFront(r, serve.Role{
		Prefix: "cluster",
		Limits: cfg.Limits,
		Reg:    cfg.Reg,
		// Proxying is IO-bound: fan a batch out wider than the cores.
		Batch:  4 * runtime.GOMAXPROCS(0),
		Health: r.health,
	})
	r.Handle("GET /v1/cluster", r.handleCluster)
	go r.probeLoop()
	return r, nil
}

// Drain gracefully shuts the router down: new cell work is rejected
// with 503, in-flight requests run to completion (bounded by ctx),
// probing stops, and the final metrics snapshot is returned. Workers
// are not touched — they drain on their own lifecycle.
func (r *Router) Drain(ctx context.Context) (obs.Snapshot, error) {
	_, err := r.Front.Drain(ctx)
	r.stopOnce.Do(func() { close(r.probeStop) })
	<-r.probeDone
	return r.Metrics(), err
}

// Alive returns the ids of the workers currently on the ring, sorted.
func (r *Router) Alive() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Nodes()
}

// Owner returns the worker currently owning key (for tests and the
// topology endpoint).
func (r *Router) Owner(key string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Owner(key)
}

// ---------------------------------------------------- request path

// Execute is the router's executor: identical in-flight requests
// coalesce at the router, and the leader proxies to the key's owner
// with failover across its deterministic successors.
func (r *Router) Execute(ctx context.Context, key indra.CellKey, timeout time.Duration) serve.Cell {
	ks := key.String()
	r.sfMu.Lock()
	if f, ok := r.sf[ks]; ok {
		r.sfMu.Unlock()
		r.m.coalesced.Inc()
		select {
		case <-f.done:
			return f.res
		case <-ctx.Done():
			return deadlineCell(ks)
		}
	}
	f := &flight{done: make(chan struct{})}
	r.sf[ks] = f
	r.sfMu.Unlock()

	f.res = r.forward(ctx, key, ks, timeout)
	r.sfMu.Lock()
	delete(r.sf, ks)
	r.sfMu.Unlock()
	close(f.done)
	return f.res
}

func deadlineCell(key string) serve.Cell {
	return serve.Cell{Key: key, Status: http.StatusGatewayTimeout, Error: "deadline expired before the cell completed"}
}

// forward tries the key's owner, then its ring successors, treating
// worker-level failures (dead process, broken transport, draining) as
// failover triggers. Cell execution is idempotent — a key pins
// byte-identical output — so retrying on the new owner is safe. An
// attempt that ends because the client's deadline expired or the
// client hung up is the client's doing, not the worker's: it answers
// 504 without touching the member's failure count (a hung worker is
// still ejected by the probes, which run on their own ProbeTimeout).
func (r *Router) forward(ctx context.Context, key indra.CellKey, ks string, timeout time.Duration) serve.Cell {
	r.mu.Lock()
	candidates := r.ring.Owners(ks, r.cfg.MaxHops)
	r.mu.Unlock()
	if len(candidates) == 0 {
		r.m.unrouted.Inc()
		return serve.Cell{Key: ks, Status: http.StatusBadGateway, Error: "no live workers"}
	}
	var lastErr error
	for hop, id := range candidates {
		r.mu.Lock()
		mb := r.members[id]
		r.mu.Unlock()
		if mb == nil {
			continue
		}
		if hop > 0 {
			r.m.retries.Inc()
		}
		r.m.proxied.Inc()
		attempt := time.Now()
		c, err := mb.w.Run(ctx, key, timeout)
		r.m.proxyLatency.Observe(uint64(time.Since(attempt).Microseconds()))
		if err == nil {
			r.noteSuccess(id)
			if hop > 0 {
				r.m.failovers.Inc()
			}
			c.Worker, c.Hops = id, hop
			return c
		}
		if ctx.Err() != nil {
			return deadlineCell(ks)
		}
		lastErr = err
		r.noteFailure(id)
	}
	r.m.unrouted.Inc()
	return serve.Cell{Key: ks, Status: http.StatusBadGateway,
		Error: fmt.Sprintf("all %d owner candidates failed: %v", len(candidates), lastErr)}
}

// ---------------------------------------------------- health and topology

// workerHealth is one member's state in the health/topology reports.
type workerHealth struct {
	ID                  string `json:"id"`
	Alive               bool   `json:"alive"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
}

func (r *Router) workerStates() (states []workerHealth, alive int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range sortedMemberIDs(r.members) {
		mb := r.members[id]
		states = append(states, workerHealth{ID: id, Alive: mb.alive, ConsecutiveFailures: mb.consecFail})
		if mb.alive {
			alive++
		}
	}
	return states, alive
}

func sortedMemberIDs(members map[string]*member) []string {
	ids := make([]string, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort: member counts are small
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// health is the router's part of /healthz: the member states, "down"
// (503) with no live worker, "degraded" (still routable: the ring
// re-hashed) with some.
func (r *Router) health() (string, int, map[string]any) {
	states, alive := r.workerStates()
	status, code := "ok", http.StatusOK
	switch {
	case alive == 0:
		status, code = "down", http.StatusServiceUnavailable
	case alive < len(states):
		status = "degraded"
	}
	return status, code, map[string]any{"role": "router", "workers": states, "alive": alive}
}

// handleCluster reports topology and routing health: members, ring
// shape, and proxy/probe latency quantiles from the obs histograms.
func (r *Router) handleCluster(w http.ResponseWriter, _ *http.Request) {
	states, alive := r.workerStates()
	snap := r.Metrics()
	quantiles := func(name string) map[string]uint64 {
		h := snap.Histograms[name]
		return map[string]uint64{
			"p50_us": h.Quantile(0.50),
			"p90_us": h.Quantile(0.90),
			"p99_us": h.Quantile(0.99),
		}
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"workers":       states,
		"alive":         alive,
		"vnodes":        ringVnodes,
		"max_hops":      r.cfg.MaxHops,
		"proxy_latency": quantiles("cluster.proxy.latency_us"),
		"probe_latency": quantiles("cluster.probe.latency_us"),
	})
}
