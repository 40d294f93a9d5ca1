// Package serve turns the INDRA experiment suite into a long-running
// network service: an HTTP/JSON front-end that accepts canonical
// experiment-cell requests (indra.CellKey strings), executes them on a
// bounded worker pool, and returns output byte-identical to the
// offline indrabench run of the same cell.
//
// The package holds the one HTTP surface of the serving tier, Front,
// and the worker's Executor behind it, Server. A cluster router
// (internal/cluster) is the other Executor behind the same Front. The
// worker's pipeline, request to response:
//
//	front: parse, validate, deadline → cache (sharded, single-flight)
//	→ admission (bounded queue, 429 + Retry-After) → execute → respond
//
// Because a cell key pins every output-determining knob and the
// parallel runner guarantees worker-count independence, the cache can
// treat the canonical key string as the result's identity: concurrent
// identical requests coalesce onto one simulation (single-flight) and
// repeat requests are served from memory. Admission control bounds the
// simulations in flight (Workers) plus those waiting (QueueDepth);
// beyond that the server sheds load with 429 and a Retry-After hint
// rather than queueing without bound.
//
// Observability rides on internal/obs: request/cell/execution
// counters, cache hit/miss counters, a queue-depth gauge with
// high-water mark, and log2 latency histograms, all exposed as a JSON
// snapshot at /metrics. Draining (SIGTERM in cmd/indrasrv) stops
// accepting work, finishes in-flight requests, and returns the final
// metrics snapshot for flushing.
package serve

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"time"

	"indra"
	"indra/internal/obs"
)

// Config tunes a worker. The zero value serves the full experiment
// registry with GOMAXPROCS concurrent cells, a 4x queue, and a
// 16-shard cache.
type Config struct {
	// Workers bounds concurrently executing simulation cells;
	// 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds cells admitted but waiting for a worker slot;
	// beyond Workers+QueueDepth requests are rejected with 429.
	// 0 selects 4*Workers.
	QueueDepth int
	// CellWorkers is the worker count passed to each cell's own
	// experiment fan-out (0 selects 1: cells parallelize across, not
	// within, requests). Output is identical either way.
	CellWorkers int
	// CacheShards is the result cache's shard count (0 selects 16).
	CacheShards int
	// CacheEntries bounds cached results across all shards
	// (0 selects 4096).
	CacheEntries int
	// Limits bound each request.
	Limits
	// Reg receives the server's metrics (nil creates a fresh registry).
	Reg *obs.Registry
	// Warm is ignored: every cell cold-boots its chips.
	//
	// Deprecated: leave it nil (see indra.WarmBooter).
	Warm *indra.WarmBooter
	// Runner executes one cell (nil selects indra.RunCell with
	// CellWorkers). Tests inject stubs here.
	Runner func(indra.CellKey) (string, error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CellWorkers <= 0 {
		c.CellWorkers = 1
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.Reg == nil {
		c.Reg = obs.NewRegistry()
	}
	if c.Runner == nil {
		inner := c.CellWorkers
		c.Runner = func(k indra.CellKey) (string, error) {
			return indra.RunCell(k, indra.ExpOptions{Workers: inner})
		}
	}
	return c
}

// Server is a worker: the shared Front over the local simulation
// pipeline, plus POST /v1/fill for cluster peer cache fills.
type Server struct {
	*Front
	cfg   Config
	m     metrics
	cache *resultCache
	adm   *admission
}

// New builds a worker from cfg (zero value is serviceable).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, m: newMetrics(cfg.Reg)}
	s.cache = newResultCache(cfg.CacheShards, cfg.CacheEntries, s.m.cacheHits, s.m.cacheMiss)
	s.adm = newAdmission(cfg.Workers, cfg.QueueDepth, s.m.queueDepth)
	experiments := len(indra.Experiments())
	s.Front = NewFront(s, Role{
		Prefix: "serve",
		Limits: cfg.Limits,
		Reg:    cfg.Reg,
		Batch:  cfg.Workers,
		Health: func() (string, int, map[string]any) {
			return "ok", http.StatusOK, map[string]any{"experiments": experiments}
		},
	})
	s.Handle("POST /v1/fill", s.handleFill)
	return s
}

// Execute is the worker's executor: the result cache with
// single-flight, then admission, then Config.Runner. The front calls it
// with a validated key; in-process callers use ExecuteCell.
func (s *Server) Execute(ctx context.Context, key indra.CellKey, _ time.Duration) Cell {
	start := time.Now()
	ks := key.String()
	out, cached, err := s.cache.do(ctx, ks, func() (string, error) {
		release, aerr := s.adm.acquire(ctx)
		if aerr != nil {
			return "", aerr
		}
		defer release()
		s.m.executions.Inc()
		execStart := time.Now()
		o, rerr := s.cfg.Runner(key)
		s.m.execLatency.Observe(uint64(time.Since(execStart).Microseconds()))
		return o, rerr
	})
	s.m.cellLatency.Observe(uint64(time.Since(start).Microseconds()))
	c := Cell{Key: ks, Cached: cached}
	switch {
	case err == nil:
		c.Status = http.StatusOK
		c.Output = out
	case errors.Is(err, ErrBusy):
		s.m.rejected.Inc()
		c.Status = http.StatusTooManyRequests
		c.Error = err.Error()
		c.RetryAfter = s.adm.retryAfterSeconds()
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.m.deadlines.Inc()
		c.Status = http.StatusGatewayTimeout
		c.Error = "deadline expired before the cell completed"
	default:
		c.Status = http.StatusInternalServerError
		c.Error = err.Error()
	}
	return c
}

// FillCache installs a completed result for key without executing it —
// the cluster peer cache-fill path, so a failed-over key's new owner
// answers warm. Existing (or in-flight) entries win; FillCache reports
// whether the result was installed, counting installs in
// serve.cache.fills.
func (s *Server) FillCache(key indra.CellKey, output string) bool {
	if s.Draining() {
		return false
	}
	if _, err := s.role.Limits.validate(key); err != nil {
		return false
	}
	ok := s.cache.fill(key.String(), output)
	if ok {
		s.m.cacheFills.Inc()
	}
	return ok
}

// fillRequest is the JSON body of POST /v1/fill: a peer cache fill
// from a cluster router (the remembered result of a dead owner, warmed
// into this worker — the key's new owner after the ring re-hash).
type fillRequest struct {
	Key    string `json:"key"`
	Output string `json:"output"`
}

func (s *Server) handleFill(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req fillRequest
	if status, err := decodeBody(w, r, &req); err != nil {
		writeErr(w, status, "%v", err)
		return
	}
	key, err := indra.ParseCellKey(req.Key)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if status, err := s.role.Limits.validate(key); err != nil {
		writeErr(w, status, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]bool{"installed": s.FillCache(key, req.Output)})
}
