package difftest

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"indra/internal/chip"
	"indra/internal/netsim"
	"indra/internal/snapshot"
	"indra/internal/workload"
)

// bootCell builds a single-service chip the way an experiment cell
// does: bind is the shortest workload, keeping the lockstep run fast.
func bootCell(t *testing.T) *chip.Chip {
	t.Helper()
	params, err := workload.ByName("bind")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := params.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := chip.New(chip.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	port := netsim.NewPort(params.GenRequests(3, 1))
	if _, err := ch.LaunchService(0, "bind", prog, port); err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestLoopLockstep runs a full service cell under the differential
// loop: the block engine and the scalar twin must agree at every
// boundary and the run must complete (halt) cleanly.
func TestLoopLockstep(t *testing.T) {
	ch := bootCell(t)
	_, res, err := Loop(Config{Step: 1_000, Name: "unit-bind"})(ch, 0)
	if err != nil {
		t.Fatalf("lockstep run: %v", err)
	}
	if !res.Halted {
		t.Fatalf("cell did not halt: %+v", res)
	}
	if res.Instret == 0 {
		t.Fatal("no instructions executed")
	}
}

// TestLoopBudgetCap pins the ErrInstrLimit path: both engines must
// stop at exactly the cap, in agreement.
func TestLoopBudgetCap(t *testing.T) {
	ch := bootCell(t)
	_, res, err := Loop(Config{Step: 700, Name: "unit-cap"})(ch, 5_000)
	if err == nil || !strings.Contains(err.Error(), "instruction limit") {
		t.Fatalf("want instruction-limit error, got %v", err)
	}
	if res.Instret != 5_000 {
		t.Fatalf("instret = %d, want 5000", res.Instret)
	}
}

// TestDumpArtifact exercises the divergence-report writer directly (a
// healthy engine pair never triggers it): the report must land in the
// configured directory with the decoded block and scalar trace.
func TestDumpArtifact(t *testing.T) {
	ch := bootCell(t)
	if _, err := ch.Run(2_000); err != nil && !errors.Is(err, chip.ErrInstrLimit) {
		t.Fatal(err)
	}
	start := snapshot.Save(ch)
	dir := t.TempDir()
	path := dumpArtifact(Config{Name: "unit/artifact", ArtifactDir: dir}, start, ch, ch, 1_500, "synthetic divergence")
	if path == "" {
		t.Fatal("no artifact written")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"difftest divergence", "synthetic divergence", "block entry", "scalar reference trace"} {
		if !strings.Contains(string(b), want) {
			t.Errorf("artifact missing %q", want)
		}
	}
	if got := filepath.Dir(path); got != dir {
		t.Errorf("artifact dir = %s, want %s", got, dir)
	}
}
