package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indra"
)

// The unit tests exercise the serving machinery (cache, single-flight,
// admission, deadlines, drain) with stub runners keyed on the cell
// seed, so no simulations run and the timing is fully controlled. The
// black-box e2e and soak tests against real simulations live at the
// repo root (serve_e2e_test.go).

// key returns a valid canonical key whose seed distinguishes stub
// behaviours ("fig9" is registered, so validation passes).
func key(seed uint32) string {
	return indra.CellKey{Experiment: "fig9", Requests: 1, Scale: 1, Seed: seed}.String()
}

func postCell(t *testing.T, client *http.Client, base, cellKey string, timeoutMS int64) (*http.Response, Cell) {
	t.Helper()
	body := fmt.Sprintf(`{"key":%q,"timeout_ms":%d}`, cellKey, timeoutMS)
	resp, err := client.Post(base+"/v1/cell", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/cell: %v", err)
	}
	defer resp.Body.Close()
	var cr Cell
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		// Non-cell errors (400/503) decode into the error shape; leave
		// cr zero in that case.
		cr = Cell{}
	}
	return resp, cr
}

func counters(t *testing.T, base string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]struct {
			Value uint64 `json:"value"`
			High  uint64 `json:"high"`
		} `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	return snap.Counters
}

func TestSingleFlightDeduplicates(t *testing.T) {
	var execs atomic.Int64
	srv := New(Config{
		Workers: 4, QueueDepth: 64,
		Runner: func(k indra.CellKey) (string, error) {
			execs.Add(1)
			time.Sleep(50 * time.Millisecond) // hold the flight open so requesters overlap
			return "result-" + k.String(), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 12
	var wg sync.WaitGroup
	outs := make([]Cell, clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, cr := postCell(t, ts.Client(), ts.URL, key(7), 5000)
			codes[i], outs[i] = resp.StatusCode, cr
		}(i)
	}
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("runner executed %d times for one key, want 1 (single-flight)", n)
	}
	cachedCount := 0
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if outs[i].Output != outs[0].Output {
			t.Fatalf("client %d saw different bytes", i)
		}
		if outs[i].Cached {
			cachedCount++
		}
	}
	if cachedCount != clients-1 {
		t.Fatalf("%d clients reported cached, want %d (all but the leader)", cachedCount, clients-1)
	}
	c := counters(t, ts.URL)
	if c["serve.executions"] != 1 || c["serve.cache.misses"] != 1 || c["serve.cache.hits"] != clients-1 {
		t.Fatalf("counters %v", c)
	}
}

func TestBackpressure429WithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	started := make(chan uint32, 8)
	srv := New(Config{
		Workers: 1, QueueDepth: 1,
		Runner: func(k indra.CellKey) (string, error) {
			started <- k.Seed
			<-release
			return "ok", nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type result struct {
		code int
	}
	results := make(chan result, 2)
	for _, seed := range []uint32{1, 2} {
		go func(seed uint32) {
			resp, _ := postCell(t, ts.Client(), ts.URL, key(seed), 10_000)
			results <- result{resp.StatusCode}
		}(seed)
	}
	// Wait until one cell is executing (the other is queued or about
	// to be). The queue gauge cannot distinguish executing from
	// waiting, so poll the admitted count through the metrics.
	<-started
	waitFor(t, func() bool {
		return srv.adm.admitted.Load() == 2
	}, "two cells admitted (1 executing + 1 queued)")

	// The queue (capacity 1) is now full: the third distinct cell must
	// be shed immediately with 429 + Retry-After.
	resp, _ := postCell(t, ts.Client(), ts.URL, key(3), 10_000)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third cell got %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if sec, err := strconv.Atoi(ra); err != nil || sec < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", ra)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if r := <-results; r.code != http.StatusOK {
			t.Fatalf("blocked cell finished with %d, want 200", r.code)
		}
	}
	if c := counters(t, ts.URL); c["serve.rejected"] != 1 {
		t.Fatalf("rejected counter %d, want 1", c["serve.rejected"])
	}
}

func TestDeadline504ReleasesQueueSlot(t *testing.T) {
	release := make(chan struct{})
	started := make(chan uint32, 8)
	srv := New(Config{
		Workers: 1, QueueDepth: 1,
		Runner: func(k indra.CellKey) (string, error) {
			started <- k.Seed
			<-release
			return "ok", nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	firstDone := make(chan int, 1)
	go func() {
		resp, _ := postCell(t, ts.Client(), ts.URL, key(1), 10_000)
		firstDone <- resp.StatusCode
	}()
	<-started // cell 1 holds the only worker slot

	// Cell 2 queues with a 100ms deadline; the slot never frees, so it
	// must give up with 504 and release its queue position.
	resp, _ := postCell(t, ts.Client(), ts.URL, key(2), 100)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued cell with expired deadline got %d, want 504", resp.StatusCode)
	}
	if c := counters(t, ts.URL); c["serve.deadlines"] != 1 {
		t.Fatalf("deadline counter %d, want 1", c["serve.deadlines"])
	}

	// The queue slot must be free again: cell 3 is admitted (not 429)
	// and completes once the worker frees up.
	thirdDone := make(chan int, 1)
	go func() {
		resp, _ := postCell(t, ts.Client(), ts.URL, key(3), 10_000)
		thirdDone <- resp.StatusCode
	}()
	waitFor(t, func() bool { return srv.adm.admitted.Load() == 2 }, "cell 3 admitted into the freed queue slot")

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("first cell %d, want 200", code)
	}
	if code := <-thirdDone; code != http.StatusOK {
		t.Fatalf("third cell %d, want 200 (queue slot was not released)", code)
	}
	waitFor(t, func() bool { return srv.adm.admitted.Load() == 0 }, "admission drained to zero")
}

func TestDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	release := make(chan struct{})
	started := make(chan uint32, 1)
	srv := New(Config{
		Workers: 2, QueueDepth: 4,
		Runner: func(k indra.CellKey) (string, error) {
			started <- k.Seed
			<-release
			return "drained-ok", nil
		},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}

	inFlight := make(chan Cell, 1)
	go func() {
		_, cr := postCell(t, client, base, key(1), 10_000)
		inFlight <- cr
	}()
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := srv.Drain(ctx)
		drained <- err
	}()
	waitFor(t, srv.Draining, "server marked draining")

	// New work is refused while draining: either the listener is
	// already closed (transport error) or the handler answers 503.
	resp, err := client.Post(base+"/v1/cell", "application/json",
		strings.NewReader(fmt.Sprintf(`{"key":%q}`, key(2))))
	if err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request during drain got %d, want 503 or a refused connection", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// The in-flight request must still complete.
	close(release)
	if cr := <-inFlight; cr.Output != "drained-ok" || cr.Status != http.StatusOK {
		t.Fatalf("in-flight request during drain: %+v", cr)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

func TestFailedExecutionsAreNotCached(t *testing.T) {
	var calls atomic.Int64
	srv := New(Config{
		Workers: 2, QueueDepth: 4,
		Runner: func(k indra.CellKey) (string, error) {
			if calls.Add(1) == 1 {
				return "", fmt.Errorf("transient failure")
			}
			return "recovered", nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postCell(t, ts.Client(), ts.URL, key(1), 5000)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing execution got %d, want 500", resp.StatusCode)
	}
	resp, cr := postCell(t, ts.Client(), ts.URL, key(1), 5000)
	if resp.StatusCode != http.StatusOK || cr.Cached || cr.Output != "recovered" {
		t.Fatalf("retry after failure: status %d, %+v (errors must not be cached)", resp.StatusCode, cr)
	}
	resp, cr = postCell(t, ts.Client(), ts.URL, key(1), 5000)
	if resp.StatusCode != http.StatusOK || !cr.Cached {
		t.Fatalf("third request: status %d cached %v, want a warm hit", resp.StatusCode, cr.Cached)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("runner called %d times, want 2", n)
	}
}

func TestBatchNDJSONStreamsAndDeduplicates(t *testing.T) {
	var execs atomic.Int64
	srv := New(Config{
		Workers: 4, QueueDepth: 16,
		Runner: func(k indra.CellKey) (string, error) {
			execs.Add(1)
			return "out-" + k.String(), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"cells":[%q,%q,%q,%q]}`, key(1), key(2), key(1), key(2))
	resp, err := ts.Client().Post(ts.URL+"/v1/cells", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 {
		t.Fatalf("batch of 4 produced %d NDJSON lines", len(lines))
	}
	byKey := map[string]string{}
	for _, line := range lines {
		var cr Cell
		if err := json.Unmarshal([]byte(line), &cr); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if cr.Status != http.StatusOK {
			t.Fatalf("cell %s status %d", cr.Key, cr.Status)
		}
		if prev, ok := byKey[cr.Key]; ok && prev != cr.Output {
			t.Fatalf("cell %s served different bytes within one batch", cr.Key)
		}
		byKey[cr.Key] = cr.Output
	}
	if len(byKey) != 2 {
		t.Fatalf("batch covered %d distinct keys, want 2", len(byKey))
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("runner executed %d times, want 2 (duplicates coalesce)", n)
	}
}

func TestHealthzAndExperiments(t *testing.T) {
	srv := New(Config{Runner: func(indra.CellKey) (string, error) { return "", nil }})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status      string `json:"status"`
		Experiments int    `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz %d %+v", resp.StatusCode, health)
	}
	if health.Experiments != len(indra.Experiments()) {
		t.Fatalf("healthz experiments %d, want %d", health.Experiments, len(indra.Experiments()))
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var exps struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&exps); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(exps.Experiments) != len(indra.Experiments()) || exps.Experiments[0] != "table2" {
		t.Fatalf("experiments %v", exps.Experiments)
	}
}

func TestCacheEvictsCompletedAtCapacity(t *testing.T) {
	srv := New(Config{
		Workers: 2, QueueDepth: 8, CacheShards: 1, CacheEntries: 2,
		Runner: func(k indra.CellKey) (string, error) { return "x", nil },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for seed := uint32(1); seed <= 5; seed++ {
		resp, _ := postCell(t, ts.Client(), ts.URL, key(seed), 5000)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d", seed, resp.StatusCode)
		}
	}
	if n := srv.cache.len(); n > 2 {
		t.Fatalf("cache holds %d entries, bound is 2", n)
	}
}

// waitFor polls cond with a deadline — admission state transitions are
// asynchronous with the HTTP clients that trigger them.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestForgedFillIsNotServed: a worker's result cache has one writer,
// its own Runner. A forged result POSTed to /v1/fill is refused with
// 404, and the key's next request simulates it once and returns the
// runner's bytes, not cached.
func TestForgedFillIsNotServed(t *testing.T) {
	var execs atomic.Int64
	srv := New(Config{
		Workers: 2,
		Runner: func(k indra.CellKey) (string, error) {
			execs.Add(1)
			return "executed-" + k.String(), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]string{"key": key(7), "output": "pwned\n"})
	resp, err := ts.Client().Post(ts.URL+"/v1/fill", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/fill: status %d, want 404", resp.StatusCode)
	}

	resp, cr := postCell(t, ts.Client(), ts.URL, key(7), 5000)
	if resp.StatusCode != http.StatusOK || cr.Cached || cr.Output != "executed-"+key(7) {
		t.Fatalf("cell after forged fill: status %d cached %v output %q, want 200, not cached, the runner's bytes",
			resp.StatusCode, cr.Cached, cr.Output)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("key executed %d times, want 1", n)
	}
}

// TestExecuteCellMatchesHTTP: the in-process path a cluster local
// worker uses answers exactly like POST /v1/cell — same pipeline, same
// cache, same validation, 503 while draining.
func TestExecuteCellMatchesHTTP(t *testing.T) {
	srv := New(Config{
		Workers: 2,
		Runner: func(k indra.CellKey) (string, error) {
			return "result-" + k.String(), nil
		},
	})
	k, err := indra.ParseCellKey(key(1))
	if err != nil {
		t.Fatal(err)
	}
	res := srv.ExecuteCell(context.Background(), k, 0)
	if res.Status != http.StatusOK || res.Cached || res.Output != "result-"+key(1) {
		t.Fatalf("cold ExecuteCell: %+v", res)
	}
	if res = srv.ExecuteCell(context.Background(), k, 0); res.Status != http.StatusOK || !res.Cached {
		t.Fatalf("warm ExecuteCell not cached: %+v", res)
	}

	bad := indra.CellKey{Experiment: "no-such-exp", Requests: 1, Scale: 1, Seed: 1}
	if res = srv.ExecuteCell(context.Background(), bad, 0); res.Status != http.StatusNotFound {
		t.Fatalf("unknown experiment: status %d, want 404", res.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if res = srv.ExecuteCell(context.Background(), k, 0); res.Status != http.StatusServiceUnavailable {
		t.Fatalf("draining ExecuteCell: status %d, want 503", res.Status)
	}
}
