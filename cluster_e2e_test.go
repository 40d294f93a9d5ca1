package indra_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"indra"
	"indra/internal/cluster"
	"indra/internal/serve"
)

// Black-box tests of the cluster tier: a real router (the same
// cluster.Router construction cmd/indrasrv -cluster uses) over real
// indrasrv workers on loopback listeners, exercised over HTTP. The
// contract is the serving e2e contract one layer up: the bytes a
// client reads through the router must equal the committed goldens
// byte for byte — cold (routed to each key's owner, executed once
// cluster-wide), warm (owner cache hits), and straight through a
// mid-batch worker kill (failover re-routes to the ring successor;
// idempotent re-execution makes the kill invisible in the response
// bytes).

// e2eCluster is one running cluster: n workers, each a real
// serve.Server on its own listener, fronted by a router.
type e2eCluster struct {
	router  *cluster.Router
	base    string
	srvs    []*serve.Server
	ids     []string // worker id (base URL) per srvs index
	client  *http.Client
	drained bool
}

func startE2ECluster(t *testing.T, n int) *e2eCluster {
	t.Helper()
	c := &e2eCluster{client: &http.Client{Timeout: 10 * time.Minute}}
	var workers []cluster.Worker
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Config{Workers: 2})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(l) }()
		id := "http://" + l.Addr().String()
		c.srvs = append(c.srvs, srv)
		c.ids = append(c.ids, id)
		workers = append(workers, cluster.NewHTTPWorker(id, nil))
	}
	router, err := cluster.New(cluster.Config{
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  time.Second,
		FailThreshold: 2,
	}, workers)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = router.Serve(rl) }()
	c.router = router
	c.base = "http://" + rl.Addr().String()
	t.Cleanup(func() { c.drain(t) })
	return c
}

func (c *e2eCluster) drain(t *testing.T) {
	t.Helper()
	if c.drained {
		return
	}
	c.drained = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.router.Drain(ctx); err != nil {
		t.Errorf("router drain: %v", err)
	}
	for i, srv := range c.srvs {
		// A worker killed mid-test has already closed its server; its
		// drain error is expected.
		if _, err := srv.Drain(ctx); err != nil && !srv.Draining() {
			t.Errorf("worker %d drain: %v", i, err)
		}
	}
	c.client.CloseIdleConnections()
}

// routedCell is the router's /v1/cell(s) wire shape.
type routedCell struct {
	Key    string `json:"key"`
	Output string `json:"output"`
	Cached bool   `json:"cached"`
	Status int    `json:"status"`
	Error  string `json:"error"`
	Worker string `json:"worker"`
	Hops   int    `json:"hops"`
}

func (c *e2eCluster) postCell(t *testing.T, key string) routedCell {
	t.Helper()
	resp, err := c.client.Post(c.base+"/v1/cell", "application/json",
		strings.NewReader(fmt.Sprintf(`{"key":%q,"timeout_ms":600000}`, key)))
	if err != nil {
		t.Fatalf("POST /v1/cell %s: %v", key, err)
	}
	defer resp.Body.Close()
	var cell routedCell
	if err := json.NewDecoder(resp.Body).Decode(&cell); err != nil {
		t.Fatalf("decode cell %s: %v", key, err)
	}
	if resp.StatusCode != cell.Status {
		t.Fatalf("cell %s: HTTP status %d but body status %d", key, resp.StatusCode, cell.Status)
	}
	return cell
}

// executions sums serve.executions across the given workers — the
// cluster-wide simulation count.
func (c *e2eCluster) executions(skip int) uint64 {
	var sum uint64
	for i, srv := range c.srvs {
		if i == skip {
			continue
		}
		sum += srv.Metrics().Counters["serve.executions"]
	}
	return sum
}

func (c *e2eCluster) routerCounter(name string) uint64 {
	return c.router.Metrics().Counters[name]
}

// loadGoldens returns canonical key -> committed golden bytes for the
// full experiment suite (goldens are generated at Requests 3, Scale 1,
// Seed 1 — see golden_test.go).
func loadGoldens(t *testing.T) (keys []string, goldens map[string]string) {
	t.Helper()
	goldens = make(map[string]string)
	for _, id := range indra.Experiments() {
		key := indra.CellKey{Experiment: id, Requests: 3, Scale: 1, Seed: 1}.String()
		want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".golden"))
		if err != nil {
			t.Fatalf("missing golden for %s: %v", id, err)
		}
		keys = append(keys, key)
		goldens[key] = string(want)
	}
	return keys, goldens
}

// batchStream POSTs a /v1/cells batch and hands each NDJSON line to
// visit as it arrives (completion order).
func (c *e2eCluster) batchStream(t *testing.T, keys []string, visit func(routedCell)) {
	t.Helper()
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
	for dec.More() {
		var cell routedCell
		if err := dec.Decode(&cell); err != nil {
			t.Fatalf("NDJSON decode: %v", err)
		}
		visit(cell)
	}
}

// TestClusterGoldenSuite runs the full standard suite through a
// 4-worker cluster — cold via one NDJSON batch, warm via per-cell
// requests — and holds every routed response to the committed golden
// bytes, with exactly one execution per cell across the whole cluster
// (distributed single-flight: the owner executed, peers proxied).
func TestClusterGoldenSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite cluster run is not short")
	}
	c := startE2ECluster(t, 4)
	keys, goldens := loadGoldens(t)

	// Cold: one batch through the router, fanned out to each key's owner.
	got := map[string]routedCell{}
	c.batchStream(t, keys, func(cell routedCell) { got[cell.Key] = cell })
	if len(got) != len(keys) {
		t.Fatalf("batch returned %d cells, want %d", len(got), len(keys))
	}
	owners := map[string]bool{}
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
		if cell.Worker == "" {
			t.Errorf("cold cell %s carries no routing provenance", key)
		}
		if cell.Hops != 0 {
			t.Errorf("cold cell %s took %d failover hops with all workers healthy", key, cell.Hops)
		}
		if cell.Worker != c.router.Owner(key) {
			t.Errorf("cell %s answered by %s, ring owner is %s", key, cell.Worker, c.router.Owner(key))
		}
		owners[cell.Worker] = true
		if cell.Output != want {
			t.Errorf("cold cell %s diverges from committed golden\n--- routed ---\n%s--- golden ---\n%s",
				key, cell.Output, want)
		}
	}
	if len(owners) < 2 {
		t.Errorf("all %d cells landed on %d worker(s); sharding is not spreading keys", len(keys), len(owners))
	}

	// Distributed single-flight: the cold batch cost exactly one
	// simulation per cell across the entire cluster.
	if n := c.executions(-1); n != uint64(len(keys)) {
		t.Errorf("cluster executed %d simulations for %d cells, want one each", n, len(keys))
	}

	// Warm: every cell again through the router — owner cache hits,
	// same bytes, still zero extra executions.
	for key, want := range goldens {
		cell := c.postCell(t, key)
		if cell.Status != http.StatusOK || !cell.Cached {
			t.Fatalf("warm cell %s: status %d cached %v, want 200 from owner cache", key, cell.Status, cell.Cached)
		}
		if cell.Output != want {
			t.Errorf("warm cell %s diverges from committed golden", key)
		}
	}
	if n := c.executions(-1); n != uint64(len(keys)) {
		t.Errorf("warm pass executed %d extra simulations, want 0", n-uint64(len(keys)))
	}
}

// TestClusterFailoverGoldenSuite kills a worker while the golden-suite
// batch is mid-flight and holds the contract anyway: every response
// byte-identical to its golden (failover re-routes the dead worker's
// keys to their ring successors; re-execution is idempotent), the dead
// worker ejected by the health detector, its completed results pushed
// to the keys' new owners (peer cache fill), and a post-kill warm pass
// served entirely from cache — zero new simulations.
func TestClusterFailoverGoldenSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite cluster failover run is not short")
	}
	c := startE2ECluster(t, 3)
	keys, goldens := loadGoldens(t)

	victim := -1
	var victimID string
	got := map[string]routedCell{}
	answered := map[string]bool{}
	c.batchStream(t, keys, func(cell routedCell) {
		got[cell.Key] = cell
		answered[cell.Worker] = true
		if !slices.Contains(c.ids, cell.Worker) {
			t.Errorf("batch answered by unknown worker %q", cell.Worker)
			return
		}
		if victim != -1 {
			return
		}
		// Kill at the first completion where some worker both answered a
		// cell (it provably holds completed results: the peer-fill
		// corpus) and still owns a key not yet answered (the failover
		// corpus). Kill that worker. It must also be executing a cell
		// right then: the kill breaks that request, which fails over,
		// whereas keys still pending at the router when the health
		// detector ejects the victim go to their new owner without a
		// hop.
		for i, id := range c.ids {
			if !answered[id] || c.srvs[i].Metrics().Gauges["serve.queue.depth"].Value == 0 {
				continue
			}
			for _, key := range keys {
				if _, done := got[key]; !done && c.router.Owner(key) == id {
					victim, victimID = i, id
					break
				}
			}
			if victim != -1 {
				break
			}
		}
		if victim == -1 {
			return
		}
		if err := c.srvs[victim].Kill(); err != nil {
			t.Errorf("kill worker %d: %v", victim, err)
		}
	})

	// Byte identity straight through the kill.
	if len(got) != len(keys) {
		t.Fatalf("batch returned %d cells, want %d", len(got), len(keys))
	}
	victimAnswered, failedOver := 0, 0
	for key, want := range goldens {
		cell := got[key]
		if cell.Status != http.StatusOK {
			t.Fatalf("cell %s: status %d (%s) through worker kill", key, cell.Status, cell.Error)
		}
		if cell.Output != want {
			t.Errorf("cell %s diverges from committed golden through worker kill", key)
		}
		if cell.Worker == victimID {
			victimAnswered++
		}
		if cell.Hops > 0 {
			failedOver++
		}
	}
	if victimAnswered == 0 {
		t.Error("victim answered no cells before the kill; test killed too early")
	}
	if failedOver == 0 {
		t.Error("no cell re-routed after the kill; test killed too late to exercise failover")
	}

	// The health detector ejects the victim (request failures and
	// probes share the failure counter), leaving a 2-worker ring.
	waitFor(t, 5*time.Second, func() bool { return len(c.router.Alive()) == 2 })

	// Peer cache fill: every result the victim produced (and no other —
	// survivors' results already live where the ring points) is pushed
	// to its key's new owner. cluster.fills counts installs.
	wantFills := uint64(victimAnswered)
	waitFor(t, 5*time.Second, func() bool {
		return c.routerCounter("cluster.fills")+c.routerCounter("cluster.fill.errors") >= wantFills
	})
	if n := c.routerCounter("cluster.fill.errors"); n != 0 {
		t.Errorf("%d peer cache fills failed", n)
	}
	if n := c.routerCounter("cluster.fills"); n != wantFills {
		t.Errorf("peer cache fills %d, want %d (one per victim-produced result)", n, wantFills)
	}

	// Post-kill warm pass: the survivors' caches (their own results,
	// failover re-executions, and the filled-in victim results) answer
	// everything — byte-identical, zero new simulations.
	before := c.executions(victim)
	for key, want := range goldens {
		cell := c.postCell(t, key)
		if cell.Status != http.StatusOK || !cell.Cached {
			t.Fatalf("post-kill cell %s: status %d cached %v, want 200 from cache", key, cell.Status, cell.Cached)
		}
		if cell.Output != want {
			t.Errorf("post-kill cell %s diverges from committed golden", key)
		}
		if cell.Worker == victimID {
			t.Errorf("post-kill cell %s routed to the dead worker", key)
		}
	}
	if after := c.executions(victim); after != before {
		t.Errorf("post-kill warm pass re-simulated %d cells; peer fill should have warmed the new owners", after-before)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
