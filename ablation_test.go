package indra

import (
	"reflect"
	"testing"

	"indra/internal/attack"
	"indra/internal/chip"
	"indra/internal/netsim"
)

var ablOpts = ExpOptions{Requests: 4}

func TestAblationLineSize(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is not short")
	}
	r, err := AblationLineSize(ablOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 4 {
		t.Fatal("sweep too small")
	}
	// Page-granularity must copy far more bytes than line granularity.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if first.LineBytes != 32 || last.LineBytes != 4096 {
		t.Fatalf("sweep endpoints %d..%d", first.LineBytes, last.LineBytes)
	}
	if last.BackupBytes <= first.BackupBytes*2 {
		t.Fatalf("page-granularity should move much more data: %d vs %d",
			last.BackupBytes, first.BackupBytes)
	}
	if r.Format() == "" {
		t.Fatal("format")
	}
}

func TestAblationCAM(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is not short")
	}
	r, err := AblationCAM(ablOpts)
	if err != nil {
		t.Fatal(err)
	}
	// No filter: every IL1 fill reaches the monitor.
	if r.Rows[0].Entries != 0 || r.Rows[0].RemainPct < 99.9 {
		t.Fatalf("no-filter row %+v", r.Rows[0])
	}
	// Remaining checks must be non-increasing with size.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].RemainPct > r.Rows[i-1].RemainPct+0.01 {
			t.Fatalf("filter not monotone: %+v -> %+v", r.Rows[i-1], r.Rows[i])
		}
	}
	// Even a small CAM removes the vast majority of checks.
	if r.Rows[1].RemainPct > 20 {
		t.Fatalf("8-entry CAM too weak: %.2f%%", r.Rows[1].RemainPct)
	}
}

func TestAblationMonitorSpeed(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is not short")
	}
	r, err := AblationMonitorSpeed(ablOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Overhead must grow with monitor cost, with a saturation cliff
	// once the monitor becomes the bottleneck.
	n := len(r.Rows)
	if r.Rows[0].OverheadPct > r.Rows[n-1].OverheadPct {
		t.Fatalf("overhead not increasing: %+v", r.Rows)
	}
	if r.Rows[n-1].OverheadPct < 50 {
		t.Fatalf("4x monitor cost should saturate the core: %.2f%%", r.Rows[n-1].OverheadPct)
	}
}

func TestAblationRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is not short")
	}
	r, err := AblationRollback(ablOpts)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's recovery-on-demand design must not lose to eager
	// restoration, and should restore no more lines than eager does.
	if r.DeferredCycles > r.EagerCycles {
		t.Fatalf("deferred (%d cyc) slower than eager (%d cyc)", r.DeferredCycles, r.EagerCycles)
	}
	if r.DeferredOps > r.EagerOps {
		t.Fatalf("deferred restored more lines (%d) than eager (%d)", r.DeferredOps, r.EagerOps)
	}
}

func TestAblationSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is not short")
	}
	r, err := AblationSpace(ablOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatal("row count")
	}
	for _, row := range r.Rows {
		// The paper: backup space overhead is small relative to system
		// memory — here, a small fraction of the mapped footprint.
		if row.OverheadPct > 50 {
			t.Errorf("%s: backup space %.1f%% of mapped pages", row.Service, row.OverheadPct)
		}
		if row.TrackedPages == 0 {
			t.Errorf("%s: no backup pages at all", row.Service)
		}
	}
}

func TestAblationResurrectors(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is not short")
	}
	r, err := AblationResurrectors(ablOpts)
	if err != nil {
		t.Fatal(err)
	}
	// With a deliberately slow monitor, a second resurrector must
	// relieve the bottleneck measurably.
	if float64(r.OneResCycles) < float64(r.TwoResCycles)*1.1 {
		t.Fatalf("second resurrector gained too little: %d vs %d cycles",
			r.OneResCycles, r.TwoResCycles)
	}
}

func TestAvailabilityVsReboot(t *testing.T) {
	if testing.Short() {
		t.Skip("availability run is not short")
	}
	r, err := Availability(ExpOptions{Requests: 6})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AvailabilityRow{}
	for _, row := range r.Rows {
		byName[row.Strategy] = row
	}
	indra := byName["indra-micro"]
	reboot := byName["reboot"]
	// The paper's motivating claim, quantified: under recurring
	// exploits INDRA serves every legitimate client; restart-based
	// recovery loses requests and takes far longer.
	if indra.Availability != 1.0 {
		t.Fatalf("INDRA availability %.0f%%", indra.Availability*100)
	}
	if reboot.Availability > 0.9 {
		t.Fatalf("reboot availability %.0f%% — baseline should lose clients", reboot.Availability*100)
	}
	if reboot.TotalCycles < indra.TotalCycles*2 {
		t.Fatalf("reboot (%d cyc) should be far slower than INDRA (%d cyc)",
			reboot.TotalCycles, indra.TotalCycles)
	}
	if r.Format() == "" {
		t.Fatal("format")
	}
}

// TestRebootReapsReplacedProcess holds that a reboot retires the
// process it replaces. On availability's reboot chip (bind, a stack
// smash before each legit request; each reboot drops the next two
// requests, so 1 and 5 legit requests mean 1 and 3 reboots), the kernel
// keeps one pid and exactly the frames it held after boot. Availability
// at Requests 300 reboots 150 times, which exhausted the frame region
// while replaced processes kept their frames.
func TestRebootReapsReplacedProcess(t *testing.T) {
	for _, tc := range []struct{ legit, reboots int }{{1, 1}, {5, 3}} {
		cfg := DefaultChipConfig()
		cfg.Scheme = chip.SchemeNone
		cfg.RebootRecovery = true
		b, err := bootChip(cfg, []string{"bind"}, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		booted := b.ch.Kernel().Allocator().InUse()
		smash, err := attack.NewStackSmash(b.ch.Process(0).Prog)
		if err != nil {
			t.Fatal(err)
		}
		var stream []netsim.Request
		for _, rq := range b.params[0].GenRequests(tc.legit, 1) {
			a := smash
			a.Payload = append([]byte(nil), smash.Payload...)
			stream = append(stream, a, rq)
		}
		ch, _, err := b.run(nil, stream, 0)
		if err != nil {
			t.Fatal(err)
		}
		// PIDs count up from 100, one per image.
		if pids := ch.Kernel().PIDs(); !reflect.DeepEqual(pids, []int{100 + tc.reboots}) {
			t.Errorf("after %d reboots: pids %v, want [%d]", tc.reboots, pids, 100+tc.reboots)
		}
		if got := ch.Kernel().Allocator().InUse(); got != booted {
			t.Errorf("after %d reboots: %d frames in use, want the %d held after boot", tc.reboots, got, booted)
		}
	}

	r, err := Availability(ExpOptions{Requests: 300})
	if err != nil {
		t.Fatalf("availability at Requests 300: %v", err)
	}
	for _, row := range r.Rows {
		if row.LegitTotal != 300 {
			t.Errorf("%s: %d legit requests, want 300", row.Strategy, row.LegitTotal)
		}
	}
}

func TestDetectionLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("latency run is not short")
	}
	r, err := DetectionLatency(ExpOptions{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 5 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Cycles == 0 {
			t.Errorf("%s: zero latency", row.Attack)
		}
		// Control-flow exploits are contained within a tiny fraction of
		// a request; only the hang waits for the liveness budget.
		if string(row.Attack) != "dos-hang" && row.ShareOfRequest > 0.2 {
			t.Errorf("%s: containment took %.2fx of a request", row.Attack, row.ShareOfRequest)
		}
	}
}

func TestAblationBPred(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is not short")
	}
	r, err := AblationBPred(ablOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0].Entries != 0 {
		t.Fatal("baseline row missing")
	}
	// Any bimodal table must beat the fixed bubble on CPI and achieve
	// high accuracy on loop-heavy server code.
	base := r.Rows[0].CPI
	for _, row := range r.Rows[1:] {
		if row.CPI >= base {
			t.Errorf("%d entries: CPI %.2f not better than disabled %.2f", row.Entries, row.CPI, base)
		}
		if row.AccuracyPct < 90 {
			t.Errorf("%d entries: accuracy %.1f%%", row.Entries, row.AccuracyPct)
		}
	}
}
