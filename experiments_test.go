package indra

import (
	"strings"
	"sync/atomic"
	"testing"

	"indra/internal/chip"
	"indra/internal/obs"
)

// Shape-regression tests: each experiment must keep reproducing the
// paper's qualitative result (see EXPERIMENTS.md). Small request
// counts keep them fast; the invariants are scale-stable.

var shapeOpts = ExpOptions{Requests: 4}

func TestShapeTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run is not short")
	}
	r, err := Table2(shapeOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if !row.Detected {
			t.Errorf("%s (%s): not detected", row.Attack, row.Policy)
		}
		if !row.Recovered {
			t.Errorf("%s (%s): service not recovered", row.Attack, row.Policy)
		}
	}
	// The paper's Table 2 mapping: with call/return off, injected code
	// must fall to code-origin inspection.
	found := false
	for _, row := range r.Rows {
		if row.Policy != "full" && row.DetectedBy != "code-origin" {
			t.Errorf("degraded-policy row detected by %q, want code-origin", row.DetectedBy)
		}
		if row.Policy != "full" {
			found = true
		}
	}
	if !found {
		t.Fatal("missing the degraded-policy row")
	}
	if !strings.Contains(r.Format(), "Table 2") {
		t.Fatal("format")
	}
}

func TestShapeTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run is not short")
	}
	r, err := Table3(shapeOpts)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table3Row{}
	for _, row := range r.Rows {
		byName[row.Scheme] = row
	}
	delta := byName["indra-delta"]
	pagecopy := byName["software-pagecopy"]
	log := byName["update-log"]

	// Table 3's asymmetries, measured:
	if delta.BackupCycles*4 > pagecopy.BackupCycles {
		t.Errorf("delta backup (%d) should be far cheaper than page copy (%d)",
			delta.BackupCycles, pagecopy.BackupCycles)
	}
	if delta.RecoveryCycles*4 > log.RecoveryCycles {
		t.Errorf("delta recovery (%d) should be far cheaper than log undo (%d)",
			delta.RecoveryCycles, log.RecoveryCycles)
	}
	// Delta is the best end-to-end.
	for name, row := range byName {
		if name == "indra-delta" {
			continue
		}
		if delta.NormalizedRT > row.NormalizedRT+0.01 {
			t.Errorf("delta RT %.2f worse than %s %.2f", delta.NormalizedRT, name, row.NormalizedRT)
		}
	}
}

func TestShapeTable4(t *testing.T) {
	out := Table4()
	for _, want := range []string{"16KB", "512KB", "CAS", "20 mem bus clocks", "128 entries"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q", want)
		}
	}
}

func TestShapeFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run is not short")
	}
	r, err := Fig9(shapeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Average < 0.3 || r.Average > 6 {
		t.Errorf("average IL1 miss %.2f%% outside the paper's band", r.Average)
	}
	for _, row := range r.Rows {
		if row.MissPct <= 0 || row.MissPct > 8 {
			t.Errorf("%s: miss rate %.2f%%", row.Service, row.MissPct)
		}
	}
}

func TestShapeFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run is not short")
	}
	r, err := Fig10(shapeOpts)
	if err != nil {
		t.Fatal(err)
	}
	// The large majority of origin checks are filtered, and 64 entries
	// filter at least as well as 32.
	if r.Average32 > 10 {
		t.Errorf("32-entry CAM leaves %.1f%%", r.Average32)
	}
	if r.Average64 > r.Average32+0.1 {
		t.Errorf("64-entry (%.2f%%) worse than 32-entry (%.2f%%)", r.Average64, r.Average32)
	}
}

func TestShapeFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run is not short")
	}
	r, err := Fig11(shapeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Average <= 0.1 || r.Average > 15 {
		t.Errorf("monitoring overhead %.2f%% outside the single-digit band", r.Average)
	}
}

func TestShapeFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run is not short")
	}
	r, err := Fig12(shapeOpts)
	if err != nil {
		t.Fatal(err)
	}
	small := r.Points[0]
	var at32, at64 float64
	for _, p := range r.Points {
		switch p.QueueEntries {
		case 32:
			at32 = p.Normalized
		case 64:
			at64 = p.Normalized
		}
	}
	if small.Normalized < at32 {
		t.Errorf("small queue (%.3f) not slower than 32 entries (%.3f)", small.Normalized, at32)
	}
	if small.Normalized < 1.05 {
		t.Errorf("10-entry queue penalty too small: %.3f", small.Normalized)
	}
	if at32 > 1.05 {
		t.Errorf("32 entries should be near-saturated: %.3f", at32)
	}
	if at64 != 1.0 {
		t.Errorf("normalization anchor: %.3f", at64)
	}
}

func TestShapeFig13(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run is not short")
	}
	r, err := Fig13(shapeOpts)
	if err != nil {
		t.Fatal(err)
	}
	var bind, min, max float64
	min = 1e18
	for _, row := range r.Rows {
		if row.Service == "bind" {
			bind = row.InstrPerReq
		}
		if row.InstrPerReq < min {
			min = row.InstrPerReq
		}
		if row.InstrPerReq > max {
			max = row.InstrPerReq
		}
	}
	if bind != min {
		t.Errorf("bind (%.0f) is not the shortest interval (min %.0f)", bind, min)
	}
	// Paper scale: ~150k (bind) to millions.
	if eq := bind * 10; eq < 80_000 || eq > 400_000 {
		t.Errorf("bind paper-scale interval %.0f outside ~150k band", eq)
	}
	if max/bind < 5 {
		t.Errorf("interval spread too flat: %.0f..%.0f", min, max)
	}
}

func TestShapeFig14VsFig16(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run is not short")
	}
	f14, err := Fig14(shapeOpts)
	if err != nil {
		t.Fatal(err)
	}
	f16, err := Fig16(shapeOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Page-copy checkpointing must be substantially worse than INDRA's
	// full monitor+backup configuration — the paper's core comparison.
	var indraAvg float64
	var bind16 float64
	for _, row := range f16.Rows {
		indraAvg += row.MonitorBackup
		if row.Service == "bind" {
			bind16 = row.WithRollback
		}
	}
	indraAvg /= float64(len(f16.Rows))
	if f14.Average < indraAvg+0.5 {
		t.Errorf("page-copy avg %.2f not clearly worse than INDRA %.2f", f14.Average, indraAvg)
	}
	// bind is the >2x outlier under rollback every other request.
	if bind16 < 1.7 {
		t.Errorf("bind with rollback %.2f, paper shows the >2x outlier", bind16)
	}
	for _, row := range f16.Rows {
		if row.Service != "bind" && row.WithRollback > bind16 {
			t.Errorf("%s (%.2f) exceeds the bind outlier (%.2f)", row.Service, row.WithRollback, bind16)
		}
	}
}

func TestShapeFig15(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run is not short")
	}
	// Fig 15 needs a slightly longer stream: with very few requests the
	// handler mix is noisy (one heap-heavy h_mem request skews a small
	// service's density).
	r, err := Fig15(ExpOptions{Requests: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Average < 10 || r.Average > 45 {
		t.Errorf("average dirty-line density %.1f%% outside the paper's band", r.Average)
	}
	var bind, max float64
	for _, row := range r.Rows {
		if row.Service == "bind" {
			bind = row.BackupPct
		}
		if row.BackupPct > max {
			max = row.BackupPct
		}
	}
	if bind != max {
		t.Errorf("bind (%.1f%%) is not the densest (max %.1f%%)", bind, max)
	}
}

func TestExperimentFormatters(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run is not short")
	}
	small := ExpOptions{Requests: 2}
	type fr interface{ Format() string }
	runs := []func() (fr, error){
		func() (fr, error) { return Fig9(small) },
		func() (fr, error) { return Fig13(small) },
		func() (fr, error) { return Fig15(small) },
	}
	for i, run := range runs {
		r, err := run()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		out := r.Format()
		if !strings.Contains(out, "bind") || !strings.Contains(out, "average") && !strings.Contains(out, "instr") {
			t.Errorf("run %d format:\n%s", i, out)
		}
	}
}

func TestMonitorRecordMixHelper(t *testing.T) {
	run, err := RunService("bind", Options{Requests: 2})
	if err != nil {
		t.Fatal(err)
	}
	mix := MonitorRecordMix(run)
	if mix["call"] == 0 || mix["return"] == 0 {
		t.Fatalf("record mix %v", mix)
	}
	kinds := SortedKinds(mix)
	if len(kinds) < 2 || kinds[0] > kinds[1] {
		t.Fatalf("sorted kinds %v", kinds)
	}
}

// TestExperimentCellAccounting pins, per registered experiment, how
// many chip runs go through ExpOptions.RunLoop and how many metrics
// cells register with ExpOptions.Obs. RunService cells honour both;
// cells that build their own request stream, and the fleet's node
// rounds, run through RunLoop but stay unregistered. A chip that
// stopped running through RunLoop, or a RunService cell that dropped
// Obs, moves its experiment's pair. No two of one experiment's
// registered cells may share a key.
func TestExperimentCellAccounting(t *testing.T) {
	want := map[string][2]int{ // {chip runs, registered cells}
		"table2":                {6, 6},
		"table3":                {5, 1},
		"table4":                {0, 0},
		"fig9":                  {6, 6},
		"fig10":                 {12, 12},
		"fig11":                 {12, 12},
		"fig12":                 {36, 36},
		"fig13":                 {6, 6},
		"fig14":                 {12, 12},
		"fig15":                 {6, 6},
		"fig16":                 {18, 12},
		"ablation-line":         {7, 7},
		"ablation-cam":          {6, 6},
		"ablation-monitor":      {6, 6},
		"ablation-rollback":     {2, 0},
		"ablation-space":        {6, 6},
		"ablation-resurrectors": {2, 0},
		"availability":          {2, 0},
		"latency":               {5, 5},
		"ablation-bpred":        {5, 5},
		"faultsweep":            {40, 0},
		"fleet":                 {81, 0},
	}
	if len(want) != len(Experiments()) {
		t.Errorf("%d experiments pinned, %d registered", len(want), len(Experiments()))
	}
	for _, id := range Experiments() {
		w, ok := want[id]
		if !ok {
			t.Errorf("%s: no pinned accounting", id)
			continue
		}
		if id == "fleet" && testing.Short() {
			continue // 81 six-service node rounds
		}
		var runs atomic.Int64
		suite := obs.NewSuite()
		o := ExpOptions{Requests: 1, Workers: 1, Obs: suite,
			RunLoop: func(ch *chip.Chip, maxInstr uint64) (*chip.Chip, chip.RunResult, error) {
				runs.Add(1)
				res, err := ch.Run(maxInstr)
				return ch, res, err
			}}
		if _, err := RunExperiment(id, o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := [2]int{int(runs.Load()), suite.Len()}; got != w {
			t.Errorf("%s: runs/registered = %d/%d, want %d/%d", id, got[0], got[1], w[0], w[1])
		}
		sums, err := suite.Summaries()
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool, len(sums))
		for _, c := range sums {
			if seen[c.Key] {
				t.Errorf("%s: two cells share the key %s", id, c.Key)
			}
			seen[c.Key] = true
		}
	}
}
