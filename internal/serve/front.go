package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"indra"
	"indra/internal/obs"
	"indra/internal/parallel"
)

// Cell is one cell's answer on the wire, from a worker or a router: the
// canonical key, the formatted experiment output (byte-identical to
// indrabench), whether it was served without executing a simulation,
// the observed latency and, through a router, which worker answered
// after how many failover hops. In the NDJSON stream Status/Error carry
// per-cell failures (the stream itself is always 200 once it starts).
type Cell struct {
	Key       string `json:"key"`
	Output    string `json:"output,omitempty"`
	Cached    bool   `json:"cached"`
	ElapsedMS int64  `json:"elapsed_ms"`
	Status    int    `json:"status"`
	Error     string `json:"error,omitempty"`
	Worker    string `json:"worker,omitempty"`
	Hops      int    `json:"hops,omitempty"`
	// RetryAfter is a 429's back-off hint in seconds, sent as the
	// Retry-After header rather than in the body.
	RetryAfter int `json:"-"`
}

// Executor answers validated cell keys behind a Front: a worker's
// local simulation pipeline, or a cluster router forwarding to the
// key's owner. ctx carries the request deadline, timeout its length
// (already clamped to the front's limits). Failures are answers: they
// ride in Cell.Status and Cell.Error.
type Executor interface {
	Execute(ctx context.Context, key indra.CellKey, timeout time.Duration) Cell
}

// Limits bound what one request may ask of a front. Worker and router
// configs both embed them; zero fields select the defaults.
type Limits struct {
	// DefaultTimeout is the per-request deadline when the client sends
	// none (0 selects 120s); MaxTimeout caps client-requested
	// deadlines (0 selects 15m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxRequests and MaxScale cap the per-cell workload a client may
	// ask for (0 selects 64 and 10).
	MaxRequests int
	MaxScale    float64
	// MaxBatch caps the cells in one /v1/cells request (0 selects 256).
	MaxBatch int
}

func (l Limits) withDefaults() Limits {
	if l.DefaultTimeout <= 0 {
		l.DefaultTimeout = 120 * time.Second
	}
	if l.MaxTimeout <= 0 {
		l.MaxTimeout = 15 * time.Minute
	}
	if l.MaxRequests <= 0 {
		l.MaxRequests = 64
	}
	if l.MaxScale <= 0 {
		l.MaxScale = 10
	}
	if l.MaxBatch <= 0 {
		l.MaxBatch = 256
	}
	return l
}

// timeout resolves a client-requested deadline: 0 selects the default,
// and everything is capped at MaxTimeout.
func (l Limits) timeout(d time.Duration) time.Duration {
	if d <= 0 {
		d = l.DefaultTimeout
	}
	return min(d, l.MaxTimeout)
}

func (l Limits) validate(key indra.CellKey) (int, error) {
	if !indra.KnownExperiment(key.Experiment) {
		return http.StatusNotFound, fmt.Errorf("unknown experiment %q", key.Experiment)
	}
	if key.Requests > l.MaxRequests {
		return http.StatusBadRequest, fmt.Errorf("requests %d exceeds server limit %d", key.Requests, l.MaxRequests)
	}
	if key.Scale > l.MaxScale {
		return http.StatusBadRequest, fmt.Errorf("scale %g exceeds server limit %g", key.Scale, l.MaxScale)
	}
	return 0, nil
}

// maxBodyBytes caps every request body a front decodes: a larger body
// is answered 413 instead of being buffered. A full 256-key batch is
// about 10 KB.
const maxBodyBytes = 1 << 20

// Role is what sets one front apart from another.
type Role struct {
	// Prefix names the front's metrics: "serve" on a worker, "cluster"
	// on a router.
	Prefix string
	Limits Limits
	// Reg receives the front's metrics, beside the executor's own.
	Reg *obs.Registry
	// Batch is the /v1/cells fan-out width.
	Batch int
	// Health reports the role's /healthz status, its HTTP code and the
	// role's own body fields. A draining front answers "draining" with
	// 503 whatever Health says.
	Health func() (status string, code int, fields map[string]any)
}

// Front is the HTTP surface every indrasrv serves, worker and router
// alike: routes, request parsing and validation, limits, drain
// handling, the NDJSON batch and the request metrics. It hands each
// validated key to its Executor. Create with NewFront, attach to a
// listener with Serve (or mount Handler on an existing mux), and stop
// with Drain.
type Front struct {
	role     Role
	exec     Executor
	m        frontMetrics
	mux      *http.ServeMux
	http     *http.Server
	start    time.Time
	draining atomic.Bool
}

// NewFront builds the front for exec and registers the shared routes:
//
//	GET  /healthz          liveness (503 while draining)
//	GET  /metrics          obs registry snapshot (JSON)
//	GET  /v1/experiments   registered experiment ids
//	GET  /v1/cell?key=K    one cell by canonical key
//	POST /v1/cell          {"key": K} or {"experiment": id, ...}
//	POST /v1/cells         {"cells": [K, ...]} → NDJSON as cells finish
//
// Role-specific routes are added with Handle.
func NewFront(exec Executor, role Role) *Front {
	role.Limits = role.Limits.withDefaults()
	f := &Front{
		role:  role,
		exec:  exec,
		m:     newFrontMetrics(role.Reg, role.Prefix),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	f.http = &http.Server{Handler: f.mux}
	f.Handle("GET /healthz", f.handleHealthz)
	f.Handle("GET /metrics", f.handleMetrics)
	f.Handle("GET /v1/experiments", f.handleExperiments)
	f.Handle("GET /v1/cell", f.handleCell)
	f.Handle("POST /v1/cell", f.handleCell)
	f.Handle("POST /v1/cells", f.handleCells)
	return f
}

// Handle registers a role-specific route, counted in the front's
// request metrics like the shared ones.
func (f *Front) Handle(pattern string, h http.HandlerFunc) {
	f.mux.HandleFunc(pattern, f.instrument(h))
}

// Handler returns the front's HTTP handler (for tests and embedding).
func (f *Front) Handler() http.Handler { return f.mux }

// Serve accepts connections on l until Drain or a listener error.
// Like http.Server.Serve it returns http.ErrServerClosed after a clean
// drain.
func (f *Front) Serve(l net.Listener) error { return f.http.Serve(l) }

// Draining reports whether the front has begun shutting down.
func (f *Front) Draining() bool { return f.draining.Load() }

// Drain gracefully shuts the front down: new cell work is rejected
// with 503, listeners stop accepting, in-flight requests run to
// completion (bounded by ctx), and the final metrics snapshot is
// returned for flushing. Safe to call without a listener attached.
func (f *Front) Drain(ctx context.Context) (obs.Snapshot, error) {
	f.draining.Store(true)
	err := f.http.Shutdown(ctx)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return f.Metrics(), err
}

// Kill terminates the front immediately: listeners and all active
// connections close without draining, as if the process died. The
// cluster failover tests use it to simulate worker death; production
// shutdown is Drain.
func (f *Front) Kill() error {
	f.draining.Store(true)
	return f.http.Close()
}

// Metrics snapshots the front's registry. The snapshot cycle is the
// uptime in milliseconds (the serving layer has no simulated clock of
// its own).
func (f *Front) Metrics() obs.Snapshot {
	return f.role.Reg.Snapshot(uint64(time.Since(f.start).Milliseconds()))
}

// ExecuteCell answers one cell in-process exactly as the HTTP handlers
// do once they have parsed the request: a draining front answers 503,
// an invalid key its 4xx, and a valid one goes to the executor under a
// deadline of timeout (0 selects the default; MaxTimeout caps it).
func (f *Front) ExecuteCell(ctx context.Context, key indra.CellKey, timeout time.Duration) Cell {
	if f.draining.Load() {
		return Cell{Key: key.String(), Status: http.StatusServiceUnavailable, Error: "server is draining"}
	}
	if status, err := f.role.Limits.validate(key); err != nil {
		return Cell{Key: key.String(), Status: status, Error: err.Error()}
	}
	timeout = f.role.Limits.timeout(timeout)
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	return f.execute(ctx, key, timeout)
}

// execute hands one validated cell to the executor; ctx already
// carries the deadline.
func (f *Front) execute(ctx context.Context, key indra.CellKey, timeout time.Duration) Cell {
	f.m.cells.Inc()
	start := time.Now()
	c := f.exec.Execute(ctx, key, timeout)
	c.ElapsedMS = time.Since(start).Milliseconds()
	return c
}

// ---------------------------------------------------- HTTP surface

// cellRequest is the JSON body of POST /v1/cell. Either Key (a
// canonical cell-key string) or Experiment (+ optional knobs) names
// the cell; Key wins when both are present.
type cellRequest struct {
	Key        string  `json:"key,omitempty"`
	Experiment string  `json:"experiment,omitempty"`
	Requests   int     `json:"requests,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
	Seed       uint32  `json:"seed,omitempty"`
	// TimeoutMS overrides the default per-request deadline (capped at
	// Limits.MaxTimeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// cellsRequest is the JSON body of POST /v1/cells: a batch of
// canonical cell-key strings answered as an NDJSON stream.
type cellsRequest struct {
	Cells     []string `json:"cells"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

type errResponse struct {
	Error string `json:"error"`
}

// statusWriter records the response code for metrics and forwards
// Flush so the NDJSON stream stays incremental through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (f *Front) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		f.m.requests.Inc()
		f.m.status(sw.code)
		f.m.latency.Observe(uint64(time.Since(start).Microseconds()))
	}
}

// WriteJSON answers with v as indented JSON: the one response encoding
// of every front route, role-specific ones included.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, errResponse{Error: fmt.Sprintf(format, args...)})
}

// writeCell answers a single-cell request, stamping the routing
// provenance and the back-off hint as headers.
func writeCell(w http.ResponseWriter, c Cell) {
	if c.Worker != "" {
		w.Header().Set("X-Indra-Worker", c.Worker)
		w.Header().Set("X-Indra-Hops", strconv.Itoa(c.Hops))
	}
	if c.Status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(max(1, c.RetryAfter)))
	}
	WriteJSON(w, c.Status, c)
}

// decodeBody decodes a JSON request body of at most maxBodyBytes. The
// returned status is 413 for an oversized body and 400 for any other
// decode failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)
	case err != nil:
		return http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
	}
	return 0, nil
}

func (f *Front) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, code, body := f.role.Health()
	if f.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	body["status"] = status
	body["uptime_ms"] = time.Since(f.start).Milliseconds()
	WriteJSON(w, code, body)
}

func (f *Front) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, f.Metrics())
}

func (f *Front) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"experiments": indra.Experiments()})
}

// parseCell extracts and validates the cell key of a single-cell
// request (GET query or POST body). The returned status is the HTTP
// code to answer with when err is non-nil.
func (f *Front) parseCell(w http.ResponseWriter, r *http.Request) (indra.CellKey, time.Duration, int, error) {
	var req cellRequest
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		req.Key = q.Get("key")
		if ms := q.Get("timeout_ms"); ms != "" {
			n, err := strconv.ParseInt(ms, 10, 64)
			if err != nil {
				return indra.CellKey{}, 0, http.StatusBadRequest, fmt.Errorf("bad timeout_ms %q", ms)
			}
			req.TimeoutMS = n
		}
	} else if status, err := decodeBody(w, r, &req); err != nil {
		return indra.CellKey{}, 0, status, err
	}

	var key indra.CellKey
	switch {
	case req.Key != "":
		k, err := indra.ParseCellKey(req.Key)
		if err != nil {
			return indra.CellKey{}, 0, http.StatusBadRequest, err
		}
		key = k
	case req.Experiment != "":
		key = indra.CellKey{Experiment: req.Experiment, Requests: req.Requests, Scale: req.Scale, Seed: req.Seed}
		if key.Requests == 0 {
			key.Requests = 8
		}
		if key.Scale == 0 {
			key.Scale = 1
		}
		if key.Seed == 0 {
			key.Seed = 1
		}
		// Normalize through the canonical string so hand-built and
		// key-string requests share cache entries (and get the same
		// validation).
		k, err := indra.ParseCellKey(key.String())
		if err != nil {
			return indra.CellKey{}, 0, http.StatusBadRequest, err
		}
		key = k
	default:
		return indra.CellKey{}, 0, http.StatusBadRequest, errors.New(`missing "key" or "experiment"`)
	}

	if status, err := f.role.Limits.validate(key); err != nil {
		return indra.CellKey{}, 0, status, err
	}
	return key, f.role.Limits.timeout(time.Duration(req.TimeoutMS) * time.Millisecond), 0, nil
}

func (f *Front) handleCell(w http.ResponseWriter, r *http.Request) {
	if f.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	key, timeout, status, err := f.parseCell(w, r)
	if err != nil {
		writeErr(w, status, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	writeCell(w, f.execute(ctx, key, timeout))
}

// handleCells answers a batch of cells as NDJSON, one Cell per line in
// completion order, flushed as each cell finishes. The stream status
// is 200 once output starts; per-cell failures (429, 504, 500, 502)
// ride in each line's status/error fields so one saturated or slow
// cell does not abort its siblings.
func (f *Front) handleCells(w http.ResponseWriter, r *http.Request) {
	if f.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req cellsRequest
	if status, err := decodeBody(w, r, &req); err != nil {
		writeErr(w, status, "%v", err)
		return
	}
	if len(req.Cells) == 0 {
		writeErr(w, http.StatusBadRequest, "empty cells batch")
		return
	}
	if len(req.Cells) > f.role.Limits.MaxBatch {
		writeErr(w, http.StatusBadRequest, "batch of %d cells exceeds server limit %d", len(req.Cells), f.role.Limits.MaxBatch)
		return
	}
	keys := make([]indra.CellKey, len(req.Cells))
	for i, ks := range req.Cells {
		k, err := indra.ParseCellKey(ks)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "cells[%d]: %v", i, err)
			return
		}
		if status, err := f.role.Limits.validate(k); err != nil {
			writeErr(w, status, "cells[%d]: %v", i, err)
			return
		}
		keys[i] = k
	}

	timeout := f.role.Limits.timeout(time.Duration(req.TimeoutMS) * time.Millisecond)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// The batch fans out on the same pool fabric as the offline
	// experiment runner; emit streams each cell's line as it completes
	// (parallel.Stream serializes emit calls). Cell failures are data
	// here, not errors, so the whole batch always runs.
	_, _ = parallel.Stream(parallel.Pool{Workers: f.role.Batch}, keys,
		func(_ int, k indra.CellKey) (Cell, error) {
			return f.execute(ctx, k, timeout), nil
		},
		func(_ int, c Cell, _ error) {
			_ = enc.Encode(c)
			if fl != nil {
				fl.Flush()
			}
		})
}
