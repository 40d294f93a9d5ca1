// Cluster scaling sweep: -cluster-sweep "1,2,4,8" boots, for each N,
// an in-process router (internal/cluster) over N freshly started
// indrasrv workers on loopback listeners, drives the standard
// open-loop arrival process against the router, and prints one row per
// N with aggregate throughput and the speedup over the first N.
//
// Every arrival gets a globally unique seed, so every accepted request
// is a distinct cell — a real simulation, never a cache hit or a
// single-flight coalesce. That measures what the cluster actually
// scales (simulation capacity), where a repeated-key workload would
// mostly measure the result cache.
//
// Two worker flavors:
//
//   - real (default): each worker executes actual experiment cells.
//     Aggregate throughput scales with the machine's spare cores —
//     on a single-core host the workers all contend for one CPU and
//     the sweep shows flat scaling; that is the machine, not the
//     router.
//   - synthetic (-synthetic 50ms): each worker's runner sleeps for the
//     given duration instead of simulating, so a worker is pure
//     capacity (slots x 1/duration) and the sweep isolates the router
//     tier's scaling from host CPU count. Deterministic output, no
//     simulation.
//
// -kill-mid additionally kills the last worker halfway through every
// N>1 phase, so the printed rows include the failover penalty: the
// router's health probes eject the dead worker and the survivors
// absorb its keys.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"indra"
	"indra/internal/cluster"
	"indra/internal/serve"
)

// sweepFlags are the cluster-sweep knobs (active with -cluster-sweep).
type sweepFlags struct {
	sizes      *string
	workerConc *int
	synthetic  *time.Duration
	killMid    *bool
	benchOut   *string
}

func registerClusterSweepFlags() sweepFlags {
	return sweepFlags{
		sizes:      flag.String("cluster-sweep", "", "comma-separated cluster sizes (e.g. 1,2,4,8): boot an in-process router over N workers per size and print a scaling table"),
		workerConc: flag.Int("worker-concurrency", 1, "concurrent cells per worker in the cluster sweep"),
		synthetic:  flag.Duration("synthetic", 0, "cluster sweep: replace simulation with a sleep of this length (isolates router scaling from host CPU count)"),
		killMid:    flag.Bool("kill-mid", false, "cluster sweep: kill the last worker halfway through every N>1 phase"),
		benchOut:   flag.String("bench-out", "", "cluster sweep: write the scaling table as JSON to this file"),
	}
}

// sweepRow is one cluster size's outcome.
type sweepRow struct {
	Workers  int     `json:"workers"`
	Sent     int64   `json:"sent"`
	OK       int64   `json:"ok"`
	Busy     int64   `json:"busy_429"`
	Deadline int64   `json:"deadline_504"`
	Other    int64   `json:"other"`
	OKPerSec float64 `json:"ok_per_s"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
	Speedup  float64 `json:"speedup"`
}

// runClusterSweep executes the -cluster-sweep phases and returns the
// process exit code.
func runClusterSweep(cf sweepFlags, lc loadConfig, requests int) int {
	var sizes []int
	for _, s := range strings.Split(*cf.sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "indraload: bad -cluster-sweep size %q\n", s)
			return 2
		}
		sizes = append(sizes, n)
	}

	mode := "real"
	if *cf.synthetic > 0 {
		mode = fmt.Sprintf("synthetic(%s)", *cf.synthetic)
	}
	fmt.Printf("cluster sweep: mode=%s rate=%.1f/s duration=%s worker-concurrency=%d kill-mid=%v\n",
		mode, lc.rate, lc.duration, *cf.workerConc, *cf.killMid)
	fmt.Printf("%8s %8s %8s %8s %8s %8s %9s %9s %9s %9s\n",
		"workers", "sent", "ok", "429", "504", "other", "ok/s", "p50(ms)", "p99(ms)", "speedup")

	client := &http.Client{Timeout: lc.timeout}
	var seedCounter atomic.Uint32 // unique seed per arrival, across all phases
	var rows []sweepRow
	clean := true
	for _, n := range sizes {
		ph, err := runSweepPhase(client, n, cf, lc, requests, &seedCounter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "indraload: cluster size %d: %v\n", n, err)
			return 1
		}
		row := summarize(n, ph, lc.duration)
		if len(rows) > 0 && rows[0].OKPerSec > 0 {
			row.Speedup = row.OKPerSec / rows[0].OKPerSec
		} else {
			row.Speedup = 1
		}
		rows = append(rows, row)
		fmt.Printf("%8d %8d %8d %8d %8d %8d %9.1f %9.1f %9.1f %8.2fx\n",
			row.Workers, row.Sent, row.OK, row.Busy, row.Deadline, row.Other,
			row.OKPerSec, row.P50MS, row.P99MS, row.Speedup)
		for _, line := range ph.workerRows() {
			fmt.Println(line)
		}
		if ph.other > 0 || ph.transport > 0 {
			clean = false
		}
	}

	if *cf.benchOut != "" {
		if err := writeBench(*cf.benchOut, mode, lc, *cf.workerConc, rows); err != nil {
			fmt.Fprintf(os.Stderr, "indraload: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "indraload: wrote %s\n", *cf.benchOut)
	}
	if !clean {
		fmt.Fprintln(os.Stderr, "indraload: unexpected responses (outside 2xx/429/504) or transport errors")
		return 1
	}
	return 0
}

// runSweepPhase boots N workers and a router, runs one load phase
// against the router, and tears the cluster down (drain, or kill for
// the -kill-mid victim).
func runSweepPhase(client *http.Client, n int, cf sweepFlags, lc loadConfig, requests int, seeds *atomic.Uint32) (*phase, error) {
	srvCfg := serve.Config{Workers: *cf.workerConc, CellWorkers: 1}
	if *cf.synthetic > 0 {
		naplen := *cf.synthetic
		srvCfg.Runner = func(k indra.CellKey) (string, error) {
			time.Sleep(naplen)
			return "synthetic " + k.String() + "\n", nil
		}
	}

	srvs := make([]*serve.Server, 0, n)
	workers := make([]cluster.Worker, 0, n)
	for i := 0; i < n; i++ {
		s := serve.New(srvCfg)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go func() { _ = s.Serve(l) }()
		srvs = append(srvs, s)
		workers = append(workers, cluster.NewHTTPWorker("http://"+l.Addr().String(), nil))
	}
	router, err := cluster.New(cluster.Config{
		ProbeInterval: 200 * time.Millisecond,
		ProbeTimeout:  time.Second,
		FailThreshold: 2,
	}, workers)
	if err != nil {
		return nil, err
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = router.Serve(rl) }()

	var killT *time.Timer
	killed := -1
	if *cf.killMid && n > 1 {
		killed = n - 1
		killT = time.AfterFunc(lc.duration/2, func() { _ = srvs[killed].Kill() })
	}

	exps := indra.Experiments()
	nextKey := func(i int64) string {
		return indra.CellKey{
			Experiment: exps[int(i)%len(exps)],
			Requests:   requests,
			Scale:      1,
			Seed:       seeds.Add(1),
		}.String()
	}
	ph := runPhase(client, "http://"+rl.Addr().String(), nextKey, lc)

	if killT != nil {
		killT.Stop()
	}
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := router.Drain(dctx); err != nil {
		return nil, fmt.Errorf("router drain: %w", err)
	}
	for i, s := range srvs {
		_, derr := s.Drain(dctx)
		if derr != nil && i != killed {
			return nil, fmt.Errorf("worker %d drain: %w", i, derr)
		}
	}
	return ph, nil
}

func summarize(n int, p *phase, dur time.Duration) sweepRow {
	p.mu.Lock()
	defer p.mu.Unlock()
	latencies := append([]time.Duration(nil), p.latencies...)
	for i := 1; i < len(latencies); i++ { // insertion sort: reuse pct's sorted contract
		for j := i; j > 0 && latencies[j] < latencies[j-1]; j-- {
			latencies[j], latencies[j-1] = latencies[j-1], latencies[j]
		}
	}
	return sweepRow{
		Workers:  n,
		Sent:     p.sent,
		OK:       p.ok,
		Busy:     p.busy,
		Deadline: p.deadline,
		Other:    p.other + p.transport,
		OKPerSec: float64(p.ok) / dur.Seconds(),
		P50MS:    pct(latencies, 0.50),
		P99MS:    pct(latencies, 0.99),
	}
}

// writeBench records the scaling table as JSON (BENCH_pr9.json in CI).
func writeBench(path, mode string, lc loadConfig, workerConc int, rows []sweepRow) error {
	doc := map[string]any{
		"cluster_scaling": map[string]any{
			"mode":               mode,
			"rate_per_s":         lc.rate,
			"duration_s":         lc.duration.Seconds(),
			"worker_concurrency": workerConc,
			"rows":               rows,
		},
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
