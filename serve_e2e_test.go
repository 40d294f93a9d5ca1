package indra_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"indra"
	"indra/internal/serve"
)

// Black-box tests of the serving path: a real indrasrv server (the
// same serve.Server construction cmd/indrasrv uses) on an ephemeral
// port, exercised over HTTP. The e2e test holds the PR-1 invariance
// contract one layer up: the bytes served over the network must equal
// the committed goldens byte for byte, cold (cache miss) and warm
// (cache hit). The soak test hammers the cache/admission machinery
// with overlapping duplicate and distinct cells under -race and checks
// single-flight accounting, cache coherence, and leak-free drain.

// e2eClient pairs the in-process server with an HTTP client whose
// idle connections can be closed before goroutine-leak accounting.
type e2eClient struct {
	srv    *serve.Server
	base   string
	client *http.Client
}

func startE2EServer(t *testing.T, cfg serve.Config) *e2eClient {
	t.Helper()
	srv := serve.New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	tr := &http.Transport{}
	return &e2eClient{
		srv:    srv,
		base:   "http://" + l.Addr().String(),
		client: &http.Client{Transport: tr, Timeout: 10 * time.Minute},
	}
}

func (c *e2eClient) drain(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	c.client.CloseIdleConnections()
}

type servedCell struct {
	Key       string `json:"key"`
	Output    string `json:"output"`
	Cached    bool   `json:"cached"`
	Status    int    `json:"status"`
	Error     string `json:"error"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

func (c *e2eClient) postCell(t *testing.T, key string) servedCell {
	t.Helper()
	resp, err := c.client.Post(c.base+"/v1/cell", "application/json",
		strings.NewReader(fmt.Sprintf(`{"key":%q,"timeout_ms":600000}`, key)))
	if err != nil {
		t.Fatalf("POST /v1/cell %s: %v", key, err)
	}
	defer resp.Body.Close()
	var cell servedCell
	if err := json.NewDecoder(resp.Body).Decode(&cell); err != nil {
		t.Fatalf("decode cell %s: %v", key, err)
	}
	if resp.StatusCode != cell.Status {
		t.Fatalf("cell %s: HTTP status %d but body status %d", key, resp.StatusCode, cell.Status)
	}
	return cell
}

func (c *e2eClient) counters(t *testing.T) map[string]uint64 {
	t.Helper()
	resp, err := c.client.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters
}

// goldenKey is the canonical cell key of a committed golden: the
// goldens are generated at Requests 3, Scale 1, Seed 1 (golden_test.go).
func goldenKey(id string) string {
	return indra.CellKey{Experiment: id, Requests: 3, Scale: 1, Seed: 1}.String()
}

// TestServeE2EGoldenSuite requests the full standard suite over HTTP —
// cold via one NDJSON batch, warm via per-cell requests — and holds
// every response to the committed golden bytes.
func TestServeE2EGoldenSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite HTTP run is not short")
	}
	c := startE2EServer(t, serve.Config{Workers: 8, QueueDepth: 64})
	defer c.drain(t)

	ids := indra.Experiments()
	keys := make([]string, len(ids))
	goldens := make(map[string]string, len(ids)) // canonical key -> golden bytes
	for i, id := range ids {
		keys[i] = goldenKey(id)
		want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".golden"))
		if err != nil {
			t.Fatalf("missing golden for %s: %v", id, err)
		}
		goldens[keys[i]] = string(want)
	}

	// Cold: one batch, streamed back as NDJSON in completion order.
	body, _ := json.Marshal(map[string]any{"cells": keys, "timeout_ms": 600000})
	resp, err := c.client.Post(c.base+"/v1/cells", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	got := map[string]servedCell{}
	for dec.More() {
		var cell servedCell
		if err := dec.Decode(&cell); err != nil {
			t.Fatalf("NDJSON decode: %v", err)
		}
		got[cell.Key] = cell
	}
	if len(got) != len(keys) {
		t.Fatalf("batch returned %d cells, want %d", len(got), len(keys))
	}
	for key, want := range goldens {
		cell, ok := got[key]
		if !ok {
			t.Fatalf("cell %s missing from batch", key)
		}
		if cell.Status != http.StatusOK {
			t.Fatalf("cold cell %s: status %d (%s)", key, cell.Status, cell.Error)
		}
		if cell.Cached {
			t.Errorf("cold cell %s reported cached", key)
		}
		if cell.Output != want {
			t.Errorf("cold cell %s diverges from committed golden\n--- served ---\n%s--- golden ---\n%s",
				key, cell.Output, want)
		}
	}

	// Warm: every cell again, one by one — cache hits, same bytes.
	for key, want := range goldens {
		cell := c.postCell(t, key)
		if cell.Status != http.StatusOK || !cell.Cached {
			t.Fatalf("warm cell %s: status %d cached %v, want 200 from cache", key, cell.Status, cell.Cached)
		}
		if cell.Output != want {
			t.Errorf("warm cell %s diverges from committed golden", key)
		}
	}

	m := c.counters(t)
	n := uint64(len(keys))
	if m["serve.executions"] != n {
		t.Errorf("executions %d, want %d (cold batch only)", m["serve.executions"], n)
	}
	if m["serve.cache.misses"] != n || m["serve.cache.hits"] != n {
		t.Errorf("cache hits/misses %d/%d, want %d/%d", m["serve.cache.hits"], m["serve.cache.misses"], n, n)
	}
}

// TestServeWarmStart holds a served cold start to the in-process run:
// on a default server every cell is a result-cache miss that boots its
// chips through the one cold-boot path, and the NDJSON bodies equal
// indra.RunCell's output byte for byte. Warm boot is retired, so
// /metrics carries no serve.warmboot.* counter.
func TestServeWarmStart(t *testing.T) {
	keys := []string{
		indra.CellKey{Experiment: "fig9", Requests: 1, Scale: 1, Seed: 1}.String(),
		indra.CellKey{Experiment: "fig9", Requests: 2, Scale: 1, Seed: 1}.String(),
		indra.CellKey{Experiment: "latency", Requests: 1, Scale: 1, Seed: 1}.String(),
		indra.CellKey{Experiment: "latency", Requests: 2, Scale: 1, Seed: 1}.String(),
	}

	c := startE2EServer(t, serve.Config{Workers: 2})
	defer c.drain(t)
	body, _ := json.Marshal(map[string]any{"cells": keys, "timeout_ms": 600000})
	resp, err := c.client.Post(c.base+"/v1/cells", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	served := map[string]servedCell{}
	for dec.More() {
		var cell servedCell
		if err := dec.Decode(&cell); err != nil {
			t.Fatalf("NDJSON decode: %v", err)
		}
		if cell.Status != http.StatusOK || cell.Cached {
			t.Fatalf("cell %s: status %d cached %v (%s), want a fresh 200", cell.Key, cell.Status, cell.Cached, cell.Error)
		}
		served[cell.Key] = cell
	}

	for _, key := range keys {
		k, err := indra.ParseCellKey(key)
		if err != nil {
			t.Fatal(err)
		}
		want, err := indra.RunCell(k, indra.ExpOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := served[key]; !ok {
			t.Errorf("cell %s missing from the batch", key)
		} else if got.Output != want {
			t.Errorf("cell %s: served output diverges from RunCell\n--- served ---\n%s--- RunCell ---\n%s", key, got.Output, want)
		}
	}
	for name := range c.counters(t) {
		if strings.HasPrefix(name, "serve.warmboot.") {
			t.Errorf("/metrics still exports %s", name)
		}
	}
}

// TestServeSoakSingleFlight floods the server with concurrent clients
// issuing overlapping duplicate and distinct cells, then verifies
// single-flight accounting (one execution per distinct cell), cache
// coherence (all clients saw identical bytes per key), and a clean
// drain with no leaked goroutines.
func TestServeSoakSingleFlight(t *testing.T) {
	before := runtime.NumGoroutine()

	c := startE2EServer(t, serve.Config{Workers: 4, QueueDepth: 1024})

	// Distinct cells: table4 variants are free (no simulation), so the
	// soak stresses the serving machinery, not the simulator; one real
	// simulated experiment rides along when the run is not -short.
	var keys []string
	for req := 1; req <= 10; req++ {
		keys = append(keys, indra.CellKey{Experiment: "table4", Requests: req, Scale: 1, Seed: 1}.String())
	}
	if !testing.Short() {
		keys = append(keys, indra.CellKey{Experiment: "fig9", Requests: 1, Scale: 1, Seed: 1}.String())
	}

	const clients = 8
	const iters = 30
	outputs := make([]map[string]string, clients) // per-client key -> bytes
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := make(map[string]string)
			for i := 0; i < iters; i++ {
				key := keys[(g*7+i*3)%len(keys)] // overlapping, client-skewed walk
				cell := c.postCell(t, key)
				if cell.Status != http.StatusOK {
					t.Errorf("client %d: cell %s status %d (%s)", g, key, cell.Status, cell.Error)
					return
				}
				if prev, ok := seen[key]; ok && prev != cell.Output {
					t.Errorf("client %d: cell %s changed bytes between requests", g, key)
					return
				}
				seen[key] = cell.Output
			}
			outputs[g] = seen
		}(g)
	}
	wg.Wait()

	// Cache coherence across clients: same key, same bytes, everywhere.
	canonical := map[string]string{}
	for g, seen := range outputs {
		for key, out := range seen {
			if prev, ok := canonical[key]; ok && prev != out {
				t.Fatalf("client %d saw different bytes for %s than an earlier client", g, key)
			}
			canonical[key] = out
		}
	}

	// Single-flight: exactly one simulation per distinct cell, and
	// every cell request either executed or hit the cache.
	m := c.counters(t)
	if m["serve.executions"] != uint64(len(keys)) {
		t.Errorf("executions %d, want %d (one per distinct cell)", m["serve.executions"], len(keys))
	}
	if m["serve.cache.misses"] != uint64(len(keys)) {
		t.Errorf("cache misses %d, want %d", m["serve.cache.misses"], len(keys))
	}
	total := uint64(clients * iters)
	if m["serve.cells"] != total {
		t.Errorf("cells %d, want %d", m["serve.cells"], total)
	}
	if m["serve.cache.hits"]+m["serve.cache.misses"] != total {
		t.Errorf("hits %d + misses %d != cells %d", m["serve.cache.hits"], m["serve.cache.misses"], total)
	}
	if m["serve.rejected"] != 0 || m["serve.deadlines"] != 0 {
		t.Errorf("unexpected sheds: rejected %d deadlines %d", m["serve.rejected"], m["serve.deadlines"])
	}

	// Clean drain: no goroutines left behind (retry — the HTTP stack
	// unwinds asynchronously after Shutdown returns).
	c.drain(t)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		c.client.CloseIdleConnections()
		after := runtime.NumGoroutine()
		if after <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across serve+drain: before %d, after %d", before, after)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
