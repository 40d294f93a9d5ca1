package indra

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"indra/internal/chip"
	"indra/internal/faultinject"
	"indra/internal/netsim"
	"indra/internal/obs"
	"indra/internal/workload"
)

// Observability lock-down tests: arming the obs layer must never
// perturb the simulation (golden invariance), and what it records must
// itself be deterministic (same bytes at any worker count, same trace
// across identical runs) and visible mid-run (-metrics-every, the
// protection counters).

// TestGoldenObsInvariance runs every golden experiment with a real
// sink armed — one registry per cell, probes sampled at end of run —
// and asserts the experiment output is byte-identical to the committed
// goldens. Observation reads the simulation; it must never write it.
func TestGoldenObsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run is not short")
	}
	suite := obs.NewSuite()
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := goldenOpts
			opts.Workers = 8
			opts.Obs = suite
			got, err := tc.run(opts)
			if err != nil {
				t.Fatalf("observed run: %v", err)
			}
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if got != string(want) {
				t.Errorf("armed observation changed the output vs %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
	if suite.Len() == 0 {
		t.Fatal("no experiment cell registered with the suite")
	}
	merged := suite.Merged()
	if merged.Counters["dram.accesses"] == 0 {
		t.Errorf("merged suite counters empty: %v", merged.Counters)
	}
}

// TestObsDeterminism runs one experiment's cells serially and fanned
// out to 8 workers and requires the rendered metrics JSON to be
// byte-identical. Under -race this is also the concurrent-sink leg:
// eight workers registering cells and sampling probes at once.
func TestObsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run is not short")
	}
	render := func(workers int) []byte {
		suite := obs.NewSuite()
		opts := goldenOpts
		opts.Workers = workers
		opts.Obs = suite
		if _, err := Fig11(opts); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if suite.Len() == 0 {
			t.Fatalf("workers=%d: no cells registered", workers)
		}
		enc, err := suite.RenderJSON()
		if err != nil {
			t.Fatalf("workers=%d: render: %v", workers, err)
		}
		return enc
	}
	serial := render(1)
	par := render(8)
	if !bytes.Equal(serial, par) {
		t.Fatalf("metrics JSON depends on worker count\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, par)
	}
	if !json.Valid(serial) {
		t.Fatal("rendered metrics are not valid JSON")
	}
}

// TestTraceDeterminism runs the same seeded service twice with tracing
// armed and requires identical trace-event streams and identical
// metrics snapshots: cycle-stamped observation of a deterministic
// simulation must itself be deterministic.
func TestTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("service run is not short")
	}
	capture := func() (trace, metrics []byte) {
		col := obs.NewCollector()
		col.EnableTracing()
		cfg := chip.DefaultConfig()
		cfg.Obs = col
		cfg.MetricsEvery = 250_000
		if _, err := RunService("httpd", Options{Requests: 4, Chip: &cfg}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := col.Tracer().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		enc, err := col.RenderJSON()
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), enc
	}
	trace1, metrics1 := capture()
	trace2, metrics2 := capture()
	if !bytes.Equal(trace1, trace2) {
		t.Errorf("trace streams differ across identical runs\n--- run 1 ---\n%s\n--- run 2 ---\n%s", trace1, trace2)
	}
	if !bytes.Equal(metrics1, metrics2) {
		t.Errorf("metrics snapshots differ across identical runs\n--- run 1 ---\n%s\n--- run 2 ---\n%s", metrics1, metrics2)
	}
	if !json.Valid(trace1) {
		t.Fatal("trace export is not valid JSON")
	}
	var f struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace1, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("trace is empty: expected request spans and context-switch instants")
	}
	var spans int
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("no request spans (ph \"X\") in the trace")
	}
}

// TestMetricsEverySnapshots pins the mid-run visibility contract:
// with MetricsEvery set the collector holds interior snapshots whose
// counters are strictly behind the final state, not just one
// end-of-run dump.
func TestMetricsEverySnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("service run is not short")
	}
	col := obs.NewCollector()
	cfg := chip.DefaultConfig()
	cfg.Obs = col
	cfg.MetricsEvery = 200_000
	if _, err := RunService("httpd", Options{Requests: 4, Chip: &cfg}); err != nil {
		t.Fatal(err)
	}
	snaps := col.Snapshots()
	if len(snaps) < 2 {
		t.Fatalf("MetricsEvery produced %d snapshot(s), want >= 2", len(snaps))
	}
	first, final := snaps[0], snaps[len(snaps)-1]
	if first.Cycle == 0 || first.Cycle >= final.Cycle {
		t.Fatalf("snapshot cycles not increasing: first %d, final %d", first.Cycle, final.Cycle)
	}
	mid, fin := first.Counters["slot0.cpu.instret"], final.Counters["slot0.cpu.instret"]
	if mid == 0 || mid >= fin {
		t.Fatalf("mid-run instret %d not strictly inside final %d", mid, fin)
	}
}

// TestHeartbeatEscalationMetrics is the regression for the mid-run
// protection-stats fix: a heartbeat escalation must show up in the
// collector's snapshots (not only in ProtectionStats after Run
// returns), and the
// tracer's "heartbeat-escalation" instants must carry exactly the
// cycles the protection log records.
func TestHeartbeatEscalationMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("stall-storm run is not short")
	}
	col := obs.NewCollector()
	col.EnableTracing()

	params := workload.MustByName("httpd")
	prog, err := params.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	cfg := chip.DefaultConfig()
	cfg.Faults = []faultinject.Plan{{Site: faultinject.SiteMonitorStall, Rate: 0.05, Seed: 4, StallCycles: 300_000}}
	cfg.HeartbeatInterval = 20_000
	cfg.Recovery.MacroPeriod = 1
	cfg.Obs = col
	c, err := chip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	port := netsim.NewPort(params.GenRequests(6, 1))
	if _, err := c.LaunchService(0, "httpd", prog, port); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(20_000_000); err != nil && !errors.Is(err, chip.ErrInstrLimit) {
		t.Fatal(err)
	}

	st := c.ProtectionStats()
	if st.MacroEscalations == 0 {
		t.Fatal("stall storm produced no macro escalations; test premise broken")
	}
	final := col.Final().Counters
	if got := final["chip.macro_escalations"]; got != st.MacroEscalations {
		t.Errorf("final snapshot chip.macro_escalations = %d, ProtectionStats = %d", got, st.MacroEscalations)
	}
	if got := final["chip.heartbeat_misses"]; got != st.HeartbeatMisses {
		t.Errorf("final snapshot chip.heartbeat_misses = %d, ProtectionStats = %d", got, st.HeartbeatMisses)
	}

	// Every escalation instant's cycle stamp must match a protection-log
	// "macro restore" line, one-to-one.
	logCycles := map[uint64]int{}
	for _, line := range c.ProtectionLog() {
		if !strings.Contains(line, "macro restore") {
			continue
		}
		var cycle uint64
		var slot int
		if _, err := fmt.Sscanf(line, "cycle %d slot %d", &cycle, &slot); err != nil {
			t.Fatalf("unparseable protection log line %q: %v", line, err)
		}
		logCycles[cycle]++
	}
	var instants int
	for _, ev := range col.Tracer().Events() {
		if ev.Name != "heartbeat-escalation" {
			continue
		}
		instants++
		if logCycles[ev.TS] == 0 {
			t.Errorf("escalation instant at cycle %d has no matching protection-log line", ev.TS)
		} else {
			logCycles[ev.TS]--
		}
	}
	if uint64(instants) != st.MacroEscalations {
		t.Errorf("%d escalation instants, want %d (one per macro escalation)", instants, st.MacroEscalations)
	}
}
