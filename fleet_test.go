package indra

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fleetRowByName finds one campaign x policy row.
func fleetRowByName(t *testing.T, r *FleetResult, campaign, policy string) FleetRow {
	t.Helper()
	for _, row := range r.Rows {
		if row.Campaign == campaign && row.Policy == policy {
			return row
		}
	}
	t.Fatalf("no %s/%s row in %d rows", campaign, policy, len(r.Rows))
	return FleetRow{}
}

// dumpFleetSnapshots replays one cell at the given worker count and
// writes every node's chip snapshot into dir — the offline-replay
// artifact CI uploads when the fleet golden diverges.
func dumpFleetSnapshots(t *testing.T, o ExpOptions, campaign, policy string, dir string) {
	t.Helper()
	f, _, err := FleetCell(o, campaign, policy)
	if err != nil {
		t.Errorf("artifact replay %s/%s: %v", campaign, policy, err)
		return
	}
	if _, err := f.Run(); err != nil {
		t.Errorf("artifact replay %s/%s: %v", campaign, policy, err)
		return
	}
	for i := 0; i < f.NodeCount(); i++ {
		name := fmt.Sprintf("%s-%s-w%d-node%d.snap", campaign, policy, o.Workers, i)
		if err := os.WriteFile(filepath.Join(dir, name), f.NodeSnapshot(i), 0o644); err != nil {
			t.Errorf("artifact write: %v", err)
			return
		}
	}
	t.Logf("wrote %d node snapshots for %s/%s (workers=%d) to %s", f.NodeCount(), campaign, policy, o.Workers, dir)
}

// The fleet experiment's core claims, held on one pair of runs:
// byte-identical output at 1 and 8 workers, the worm's re-infection
// exposure strictly reduced by rejuvenation and TMR over the reactive
// baseline, TMR actually ejecting dissenters, and the boot tally
// counting one platform for every node boot and reboot. On a determinism
// failure, every cell's node snapshots are dumped for offline replay
// (FLEET_ARTIFACT_DIR overrides the destination).
func TestFleetResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation is not short")
	}
	serialOpts := goldenOpts
	serialOpts.Workers = 1
	serial, err := Fleet(serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	parOpts := goldenOpts
	parOpts.Workers = 8
	par, err := Fleet(parOpts)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Format() != par.Format() {
		dir := os.Getenv("FLEET_ARTIFACT_DIR")
		if dir == "" {
			dir = t.TempDir()
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, row := range serial.Rows {
			dumpFleetSnapshots(t, serialOpts, row.Campaign, row.Policy, dir)
			dumpFleetSnapshots(t, parOpts, row.Campaign, row.Policy, dir)
		}
		t.Fatalf("fleet output diverges across worker counts (node snapshots in %s)\n--- Workers: 1 ---\n%s--- Workers: 8 ---\n%s",
			dir, serial.Format(), par.Format())
	}

	reactive := fleetRowByName(t, par, "worm", "reactive").Res
	rejuv := fleetRowByName(t, par, "worm", "rejuvenation").Res
	tmr := fleetRowByName(t, par, "worm", "tmr").Res
	if reactive.Infections == 0 {
		t.Fatal("worm never landed on the reactive fleet")
	}
	// The tentpole claim: policies that actually clean latent
	// compromise strictly reduce re-infection exposure.
	if rejuv.ReinfectedRounds >= reactive.ReinfectedRounds {
		t.Errorf("rejuvenation re-infected rounds %d not below reactive %d",
			rejuv.ReinfectedRounds, reactive.ReinfectedRounds)
	}
	if tmr.ReinfectedRounds >= reactive.ReinfectedRounds {
		t.Errorf("tmr re-infected rounds %d not below reactive %d",
			tmr.ReinfectedRounds, reactive.ReinfectedRounds)
	}
	if tmr.Ejections == 0 {
		t.Error("tmr never ejected a dissenter under the worm")
	}
	if reactive.Recoveries != 0 {
		t.Errorf("reactive took %d policy recoveries, want 0", reactive.Recoveries)
	}

	// The boot tally: the worm arms no per-node faults, so the whole
	// fleet is one platform, booted once per node and once per
	// rejuvenation reboot.
	boots := fleetRowByName(t, par, "worm", "rejuvenation").Boots
	if boots.Platforms != 1 {
		t.Errorf("rejuvenation booted %d platforms, want 1", boots.Platforms)
	}
	if want := serial.Nodes + rejuv.Recoveries; boots.Total != want {
		t.Errorf("rejuvenation boots = %d, want %d (nodes + reboots)", boots.Total, want)
	}
}

// The policy and cluster-size axes must thread through from options to
// result, and unknown policies must be rejected.
func TestFleetPolicyAndNodesAxes(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation is not short")
	}
	o := ExpOptions{Requests: 1, Scale: 1.0, Seed: 1, Workers: 8, FleetPolicy: "tmr", FleetNodes: 5}
	res, err := Fleet(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(FleetCampaigns) {
		t.Fatalf("%d rows for a single-policy run, want %d", len(res.Rows), len(FleetCampaigns))
	}
	for _, row := range res.Rows {
		if row.Policy != "tmr" {
			t.Errorf("row %s ran policy %q, want tmr", row.Campaign, row.Policy)
		}
		if row.Res.Nodes != 5 {
			t.Errorf("row %s ran %d nodes, want 5", row.Campaign, row.Res.Nodes)
		}
	}
	if _, err := Fleet(ExpOptions{FleetPolicy: "optimistic"}); err == nil {
		t.Error("Fleet accepted an unknown policy")
	}
	if _, err := Fleet(ExpOptions{FleetNodes: 65}); err == nil {
		t.Error("Fleet accepted an out-of-range node count")
	}
}
