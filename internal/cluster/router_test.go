package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"indra"
	"indra/internal/serve"
)

// stubWorker is a real in-process worker (a serve.Server behind a
// LocalWorker, so it has a result cache) with scriptable failure: a
// down stub fails Run/Health at the worker level (the failover
// trigger), a delayed one holds each Run until the delay or the
// request's context ends, and the runner records every execution.
type stubWorker struct {
	*LocalWorker

	mu    sync.Mutex
	down  bool
	delay time.Duration
	runs  []string // keys the runner executed, in call order
}

func newStub(id string) *stubWorker {
	s := &stubWorker{}
	s.LocalWorker = NewLocalWorker(id, serve.New(serve.Config{
		Runner: func(key indra.CellKey) (string, error) {
			s.mu.Lock()
			s.runs = append(s.runs, key.String())
			s.mu.Unlock()
			return "out:" + key.String() + "\n", nil
		},
	}))
	return s
}

func (s *stubWorker) setDown(down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = down
}

func (s *stubWorker) Run(ctx context.Context, key indra.CellKey, timeout time.Duration) (serve.Cell, error) {
	s.mu.Lock()
	down, delay := s.down, s.delay
	s.mu.Unlock()
	if down {
		return serve.Cell{}, fmt.Errorf("%w: stub %s is down", errWorkerDown, s.id)
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return serve.Cell{}, ctx.Err()
		}
	}
	return s.LocalWorker.Run(ctx, key, timeout)
}

func (s *stubWorker) Health(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return fmt.Errorf("%w: stub %s is down", errWorkerDown, s.id)
	}
	return s.LocalWorker.Health(ctx)
}

// ran counts the runner's executions of key.
func (s *stubWorker) ran(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range s.runs {
		if k == key {
			n++
		}
	}
	return n
}

func (s *stubWorker) runCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// newTestRouter builds a router over n stubs with probing effectively
// disabled (ejection is driven by request-path failures) unless cfg
// overrides the interval.
func newTestRouter(t *testing.T, cfg Config, n int) (*Router, []*stubWorker) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour
	}
	stubs := make([]*stubWorker, n)
	workers := make([]Worker, n)
	for i := range stubs {
		stubs[i] = newStub(fmt.Sprintf("w%d", i))
		workers[i] = stubs[i]
	}
	r, err := New(cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, err := r.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return r, stubs
}

func stubByID(stubs []*stubWorker, id string) *stubWorker {
	for _, s := range stubs {
		if s.id == id {
			return s
		}
	}
	return nil
}

func postCell(t *testing.T, r *Router, key string) (serve.Cell, *httptest.ResponseRecorder) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/cell",
		strings.NewReader(fmt.Sprintf(`{"key":%q}`, key)))
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	var cell serve.Cell
	if err := json.NewDecoder(rec.Body).Decode(&cell); err != nil {
		t.Fatalf("decode %s: %v (body %q)", key, err, rec.Body.String())
	}
	return cell, rec
}

func testKey(i int) string {
	return indra.CellKey{Experiment: "fig9", Requests: i, Scale: 1, Seed: 1}.String()
}

// TestRouterRoutesToOwner: every key is proxied to exactly the worker
// the ring names as its owner, and the response carries the routing
// provenance (worker id header, zero hops).
func TestRouterRoutesToOwner(t *testing.T) {
	r, stubs := newTestRouter(t, Config{}, 4)
	for i := 1; i <= 20; i++ {
		key := testKey(i)
		cell, rec := postCell(t, r, key)
		if cell.Status != http.StatusOK {
			t.Fatalf("key %s: status %d (%s)", key, cell.Status, cell.Error)
		}
		owner := r.Owner(key)
		if cell.Worker != owner || rec.Header().Get("X-Indra-Worker") != owner {
			t.Errorf("key %s: served by %s (header %s), owner is %s",
				key, cell.Worker, rec.Header().Get("X-Indra-Worker"), owner)
		}
		if cell.Hops != 0 {
			t.Errorf("key %s: %d hops on a healthy cluster", key, cell.Hops)
		}
		if stubByID(stubs, owner).ran(key) == 0 {
			t.Errorf("key %s: owner %s never executed it", key, owner)
		}
	}
}

// TestRouterSingleFlight: concurrent identical requests coalesce at
// the router — the owner sees one execution, followers share the
// leader's bytes.
func TestRouterSingleFlight(t *testing.T) {
	r, stubs := newTestRouter(t, Config{}, 3)
	key := testKey(1)
	stubByID(stubs, r.Owner(key)).delay = 50 * time.Millisecond

	const clients = 8
	outs := make([]serve.Cell, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], _ = postCell(t, r, key)
		}(i)
	}
	wg.Wait()

	total := 0
	for _, s := range stubs {
		total += s.runCount()
	}
	if total != 1 {
		t.Errorf("cluster executed %d times, want 1 (single-flight)", total)
	}
	for i, cell := range outs {
		if cell.Status != http.StatusOK || cell.Output != outs[0].Output {
			t.Errorf("client %d: status %d output %q diverges", i, cell.Status, cell.Output)
		}
	}
	snap := r.Metrics()
	if c := snap.Counters["cluster.coalesced"]; c != clients-1 {
		t.Errorf("coalesced %d, want %d", c, clients-1)
	}
	if c := snap.Counters["cluster.proxied"]; c != 1 {
		t.Errorf("proxied %d, want 1", c)
	}
}

// TestRouterFailover: a worker dies after serving keys; requests
// re-route to the ring successor with an idempotent retry, the worker
// is ejected after FailThreshold consecutive failures, and each key the
// dead worker had served runs exactly once on its new owner, which
// returns the bytes the dead worker returned: no result moves between
// workers.
func TestRouterFailover(t *testing.T) {
	r, stubs := newTestRouter(t, Config{FailThreshold: 3}, 4)

	keys := make([]string, 12)
	for i := range keys {
		keys[i] = testKey(i + 1)
	}
	victimID := r.Owner(keys[0])
	victim := stubByID(stubs, victimID)
	victimOut := map[string]string{} // key -> bytes the victim returned
	for _, k := range keys {
		cell, _ := postCell(t, r, k)
		if cell.Status != http.StatusOK {
			t.Fatalf("warmup %s: status %d", k, cell.Status)
		}
		if cell.Worker == victimID {
			victimOut[k] = cell.Output
		}
	}
	if len(victimOut) < 2 {
		t.Fatalf("victim served %d keys; the check needs one besides the failover key", len(victimOut))
	}

	victim.setDown(true)

	// Each request to a victim-owned key fails over to the successor.
	successor := NewRing(ringVnodes, removeID(r.Alive(), victimID)).Owner(keys[0])
	for i := 0; i < 3; i++ {
		cell, _ := postCell(t, r, keys[0])
		if cell.Status != http.StatusOK {
			t.Fatalf("failover request %d: status %d (%s)", i, cell.Status, cell.Error)
		}
		if cell.Worker != successor || cell.Hops == 0 {
			t.Errorf("failover request %d: served by %s with %d hops, want successor %s",
				i, cell.Worker, cell.Hops, successor)
		}
	}

	// Three consecutive worker-level failures eject the victim.
	waitFor(t, time.Second, func() bool { return len(r.Alive()) == 3 })
	for _, id := range r.Alive() {
		if id == victimID {
			t.Fatal("victim still on the ring after ejection")
		}
	}
	snap := r.Metrics()
	if snap.Counters["cluster.ejections"] != 1 {
		t.Errorf("ejections %d, want 1", snap.Counters["cluster.ejections"])
	}
	if snap.Counters["cluster.failovers"] == 0 || snap.Counters["cluster.retries"] == 0 {
		t.Error("failover/retry counters untouched")
	}

	// The survivors' keys did not move: each is answered from its
	// owner's cache, still executed once.
	for _, k := range keys {
		if _, ok := victimOut[k]; ok {
			continue
		}
		cell, _ := postCell(t, r, k)
		if cell.Status != http.StatusOK || !cell.Cached {
			t.Errorf("survivor key %s after ejection: status %d cached %v, want 200 from cache", k, cell.Status, cell.Cached)
		}
		if n := stubByID(stubs, cell.Worker).ran(k); n != 1 {
			t.Errorf("survivor key %s ran %d times on %s, want 1", k, n, cell.Worker)
		}
	}

	// Every key the victim served, asked again, runs once on its new
	// owner (keys[0] already did, on the failover requests) and comes
	// back byte-identical.
	for k, want := range victimOut {
		cell, _ := postCell(t, r, k)
		if cell.Status != http.StatusOK || cell.Output != want {
			t.Errorf("key %s after ejection: status %d output %q, want the victim's %q", k, cell.Status, cell.Output, want)
		}
		if cell.Worker != r.Owner(k) || cell.Worker == victimID {
			t.Errorf("key %s after ejection: served by %s, owner %s", k, cell.Worker, r.Owner(k))
		}
		if n := stubByID(stubs, r.Owner(k)).ran(k); n != 1 {
			t.Errorf("key %s ran %d times on its new owner, want 1", k, n)
		}
	}
}

// TestRouterClientAbortsDoNotEject: an upstream call that ends because
// the client's deadline expired, or because the client hung up, is not
// a worker failure. Three of each against a slow but healthy worker
// leave it on the ring, and the next request is answered 200.
func TestRouterClientAbortsDoNotEject(t *testing.T) {
	r, stubs := newTestRouter(t, Config{FailThreshold: 3}, 1)
	stubs[0].delay = 300 * time.Millisecond
	send := func(ctx context.Context, body string) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/cell", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, req)
		return rec.Code
	}

	for i := 1; i <= 3; i++ {
		body := fmt.Sprintf(`{"key":%q,"timeout_ms":50}`, testKey(i))
		if code := send(context.Background(), body); code != http.StatusGatewayTimeout {
			t.Errorf("deadline request %d: status %d, want 504", i, code)
		}
	}
	// A client that hangs up cancels its request's context.
	for i := 4; i <= 6; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, cancel)
		if code := send(ctx, fmt.Sprintf(`{"key":%q}`, testKey(i))); code != http.StatusGatewayTimeout {
			t.Errorf("hung-up request %d: status %d, want 504", i, code)
		}
		cancel()
	}

	if got := r.Alive(); len(got) != 1 {
		t.Fatalf("alive %v after client aborts, want the worker still on the ring", got)
	}
	if n := r.Metrics().Counters["cluster.ejections"]; n != 0 {
		t.Errorf("ejections %d, want 0", n)
	}
	if cell, _ := postCell(t, r, testKey(7)); cell.Status != http.StatusOK {
		t.Errorf("next request: status %d (%s), want 200", cell.Status, cell.Error)
	}
}

// TestRouterRevival: an ejected worker that answers health probes is
// re-admitted after ReviveThreshold consecutive successes, and its
// keys deterministically return to it.
func TestRouterRevival(t *testing.T) {
	r, stubs := newTestRouter(t, Config{
		ProbeInterval:   10 * time.Millisecond,
		FailThreshold:   2,
		ReviveThreshold: 2,
	}, 3)

	key := testKey(1)
	victimID := r.Owner(key)
	stubByID(stubs, victimID).setDown(true)
	waitFor(t, 2*time.Second, func() bool { return len(r.Alive()) == 2 })

	stubByID(stubs, victimID).setDown(false)
	waitFor(t, 2*time.Second, func() bool { return len(r.Alive()) == 3 })
	if r.Owner(key) != victimID {
		t.Errorf("revived worker did not get its keys back: owner %s, want %s", r.Owner(key), victimID)
	}
	snap := r.Metrics()
	if snap.Counters["cluster.revivals"] != 1 {
		t.Errorf("revivals %d, want 1", snap.Counters["cluster.revivals"])
	}
}

// TestRouterBatchNDJSON: a batch streams one line per cell, each
// routed to its owner, all 200.
func TestRouterBatchNDJSON(t *testing.T) {
	r, stubs := newTestRouter(t, Config{}, 4)
	var keys []string
	for i := 1; i <= 10; i++ {
		keys = append(keys, testKey(i))
	}
	body, _ := json.Marshal(map[string]any{"cells": keys})
	req := httptest.NewRequest(http.MethodPost, "/v1/cells", strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d", rec.Code)
	}
	dec := json.NewDecoder(rec.Body)
	got := map[string]serve.Cell{}
	for dec.More() {
		var cell serve.Cell
		if err := dec.Decode(&cell); err != nil {
			t.Fatalf("NDJSON decode: %v", err)
		}
		got[cell.Key] = cell
	}
	if len(got) != len(keys) {
		t.Fatalf("batch returned %d lines, want %d", len(got), len(keys))
	}
	for _, k := range keys {
		cell, ok := got[k]
		if !ok || cell.Status != http.StatusOK {
			t.Errorf("cell %s: missing or status %d", k, cell.Status)
		}
		if cell.Worker != r.Owner(k) {
			t.Errorf("cell %s: served by %s, owner %s", k, cell.Worker, r.Owner(k))
		}
	}
	total := 0
	for _, s := range stubs {
		total += s.runCount()
	}
	if total != len(keys) {
		t.Errorf("cluster executed %d cells, want %d", total, len(keys))
	}
}

// TestRouterDrainRejects: a draining router's healthz flips to 503
// "draining" and keeps its role and member report. (That draining
// cell requests are answered 503 without reaching a worker is part of
// the shared validation table, serve's TestRequestValidation.)
func TestRouterDrainRejects(t *testing.T) {
	r, err := New(Config{ProbeInterval: time.Hour}, []Worker{newStub("w0")})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := r.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health struct {
		Status string `json:"status"`
		Role   string `json:"role"`
		Alive  int    `json:"alive"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusServiceUnavailable || health.Status != "draining" || health.Role != "router" || health.Alive != 1 {
		t.Errorf("draining healthz %d %+v, want 503 draining router with 1 alive", rec.Code, health)
	}
}

// TestRouterForwardsRetryAfter: a saturated owner's back-off hint (one
// queue-drain generation) reaches the client through the router. With
// one worker slot and a one-deep queue both taken, the owner answers
// the third distinct key 429 with Retry-After 2, and so must the
// router.
func TestRouterForwardsRetryAfter(t *testing.T) {
	release := make(chan struct{})
	srv := serve.New(serve.Config{
		Workers: 1, QueueDepth: 1,
		Runner: func(indra.CellKey) (string, error) {
			<-release
			return "ok", nil
		},
	})
	ws := httptest.NewServer(srv.Handler())
	defer ws.Close()
	hw := NewHTTPWorker(ws.URL, nil)
	defer hw.CloseIdle()
	r, err := New(Config{ProbeInterval: time.Hour}, []Worker{hw})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = r.Drain(ctx)
	}()
	rs := httptest.NewServer(r.Handler())
	defer rs.Close()
	// Unblock the runner before the servers close, on every exit path.
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()

	post := func(key string) *http.Response {
		resp, err := rs.Client().Post(rs.URL+"/v1/cell", "application/json",
			strings.NewReader(fmt.Sprintf(`{"key":%q}`, key)))
		if err != nil {
			t.Error(err)
			return nil
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	codes := make(chan int, 2)
	for i := 1; i <= 2; i++ {
		go func() {
			code := 0
			if resp := post(testKey(i)); resp != nil {
				code = resp.StatusCode
			}
			codes <- code
		}()
	}
	// Both admitted: one holds the only worker slot, one is queued.
	waitFor(t, 5*time.Second, func() bool {
		return srv.Metrics().Gauges["serve.queue.depth"].Value == 2
	})

	resp := post(testKey(3))
	if resp == nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third distinct key: %v, want 429", resp)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("router Retry-After %q, want the owner's hint 2", ra)
	}
	unblock()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("blocked cell finished with %d, want 200", code)
		}
	}
}

// TestRouterPassesWorkerRejection: a cell the router admits but its
// owner rejects (the worker runs tighter limits) comes back with the
// owner's status and error. The owner's error body carries no cell
// status, so without the fallback the router would write status 0 and
// break the connection.
func TestRouterPassesWorkerRejection(t *testing.T) {
	srv := serve.New(serve.Config{
		Limits: serve.Limits{MaxRequests: 8},
		Runner: func(indra.CellKey) (string, error) { return "ok", nil },
	})
	ws := httptest.NewServer(srv.Handler())
	defer ws.Close()
	hw := NewHTTPWorker(ws.URL, nil)
	defer hw.CloseIdle()
	r, err := New(Config{ProbeInterval: time.Hour}, []Worker{hw})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = r.Drain(ctx)
	}()

	cell, rec := postCell(t, r, testKey(9))
	if rec.Code != http.StatusBadRequest || cell.Status != http.StatusBadRequest || !strings.Contains(cell.Error, "exceeds") {
		t.Errorf("owner-rejected cell: HTTP %d, body status %d error %q, want the owner's 400", rec.Code, cell.Status, cell.Error)
	}
}

// TestRouterAllWorkersDead: with every candidate down the router
// answers 502 (unrouted), not a hang or panic.
func TestRouterAllWorkersDead(t *testing.T) {
	r, stubs := newTestRouter(t, Config{FailThreshold: 100}, 2)
	for _, s := range stubs {
		s.setDown(true)
	}
	cell, rec := postCell(t, r, testKey(1))
	if rec.Code != http.StatusBadGateway || cell.Status != http.StatusBadGateway {
		t.Errorf("status %d/%d, want 502", rec.Code, cell.Status)
	}
	if r.Metrics().Counters["cluster.unrouted"] == 0 {
		t.Error("unrouted counter untouched")
	}
}

func removeID(ids []string, id string) []string {
	var out []string
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
