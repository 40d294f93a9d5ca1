package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"indra"
	"indra/internal/serve"
)

// Worker is one cluster member as the router sees it. Run returns an
// error only for worker-level failures (the process is dead,
// the transport broke, the reply was not a cell response); those
// trigger failover. Cell-level failures (429, 504, 500) are answers:
// they ride inside the Cell and go back to the client.
type Worker interface {
	// ID is the stable ring identity (a peer URL or local worker name).
	ID() string
	// Run executes (or cache-serves) one cell on this worker.
	Run(ctx context.Context, key indra.CellKey, timeout time.Duration) (serve.Cell, error)
	// Health probes the worker's /healthz (nil = alive and serving).
	Health(ctx context.Context) error
}

// errWorkerDown marks worker-level failures originating locally.
var errWorkerDown = errors.New("cluster: worker down")

// ---------------------------------------------------- HTTP worker

// HTTPWorker fronts a real indrasrv process over HTTP — the scale-out
// member type. The zero-value client timeouts are governed per-call by
// ctx; the router sets a probe timeout for Health.
type HTTPWorker struct {
	base   string // e.g. http://127.0.0.1:8081, no trailing slash
	client *http.Client
}

// NewHTTPWorker builds a worker for the indrasrv at base. client nil
// selects a dedicated default client (per-request deadlines come from
// ctx, so no client-level timeout is set).
func NewHTTPWorker(base string, client *http.Client) *HTTPWorker {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	}
	return &HTTPWorker{base: base, client: client}
}

func (w *HTTPWorker) ID() string { return w.base }

// Run posts the cell to the worker's /v1/cell and returns its answer,
// with a 429's Retry-After hint carried in Cell.RetryAfter.
func (w *HTTPWorker) Run(ctx context.Context, key indra.CellKey, timeout time.Duration) (serve.Cell, error) {
	body, _ := json.Marshal(map[string]any{"key": key.String(), "timeout_ms": timeout.Milliseconds()})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/cell", bytes.NewReader(body))
	if err != nil {
		return serve.Cell{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return serve.Cell{}, fmt.Errorf("%w: %v", errWorkerDown, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	// 502/503 mean the worker (or something in front of it) cannot
	// serve cells right now — a worker-level failure to fail over, not
	// a cell answer. Everything else must parse as a cell response.
	if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
		return serve.Cell{}, fmt.Errorf("%w: status %d", errWorkerDown, resp.StatusCode)
	}
	var c serve.Cell
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return serve.Cell{}, fmt.Errorf("%w: bad cell response: %v", errWorkerDown, err)
	}
	if c.Status == 0 { // a request-level error body carries only "error"
		c.Key, c.Status = key.String(), resp.StatusCode
	}
	if c.Status == http.StatusTooManyRequests {
		c.RetryAfter, _ = strconv.Atoi(resp.Header.Get("Retry-After"))
	}
	return c, nil
}

func (w *HTTPWorker) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", errWorkerDown, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: healthz status %d", errWorkerDown, resp.StatusCode)
	}
	return nil
}

// CloseIdle releases the worker client's idle connections (tests and
// drain paths use it to avoid goroutine-leak noise).
func (w *HTTPWorker) CloseIdle() { w.client.CloseIdleConnections() }

// ---------------------------------------------------- local worker

// LocalWorker runs a serve.Server in-process — the single-binary
// cluster (indrasrv -cluster -local-workers N). Semantics match
// HTTPWorker: a draining server is a worker-level failure, cell-level
// failures ride in the Cell.
type LocalWorker struct {
	id  string
	srv *serve.Server
}

// NewLocalWorker wraps srv as the cluster member named id.
func NewLocalWorker(id string, srv *serve.Server) *LocalWorker {
	return &LocalWorker{id: id, srv: srv}
}

func (w *LocalWorker) ID() string { return w.id }

// Run answers the cell through the server's in-process entry, the one
// its HTTP handlers call after parsing.
func (w *LocalWorker) Run(ctx context.Context, key indra.CellKey, timeout time.Duration) (serve.Cell, error) {
	c := w.srv.ExecuteCell(ctx, key, timeout)
	if c.Status == http.StatusServiceUnavailable {
		return serve.Cell{}, fmt.Errorf("%w: %s", errWorkerDown, c.Error)
	}
	return c, nil
}

func (w *LocalWorker) Health(context.Context) error {
	if w.srv.Draining() {
		return fmt.Errorf("%w: draining", errWorkerDown)
	}
	return nil
}
