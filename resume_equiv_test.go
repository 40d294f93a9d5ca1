package indra

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"indra/internal/attack"
	"indra/internal/chip"
	"indra/internal/snapshot"
)

// Resume equivalence: a run that is frozen to a snapshot blob at
// deterministic mid-run points and revived into a freshly booted chip
// must produce exactly the output of the uninterrupted run. Every
// golden experiment is replayed with a segmented run loop (snapshot →
// restore at each point) and compared byte-for-byte against the
// committed golden files, at Workers 1 and 8.
//
// Any state the snapshot forgets — a cache line, a shadow-stack frame,
// an RNG cursor, a pending violation, the drain pacing — shows up here
// as a golden diff.

// resumePoints are the instruction counts at which every RunService
// cell is snapshotted and restored. The shortest golden service run
// (bind, 3 requests) executes ~72k instructions, so all four points
// are genuinely mid-run for every service. The 45k point lands deep in
// steady-state request handling, where the decoded pages the block
// executor runs from are fully warm: it pins that they are rebuilt
// (never serialized) and that a restore onto a fresh chip mid-hot-loop
// stays byte-exact.
var resumePoints = []uint64{5_000, 20_000, 45_000, 60_000}

// segTracker records the deepest segmentation any cell of an
// experiment reached, so the test can prove restores actually
// happened (an accidentally ignored RunLoop would pass the output
// comparison trivially). It also keeps the most recent snapshot blob:
// on a divergence the CI snapshot job uploads it for post-mortem
// replay with `indrasim -snapshot-in`.
type segTracker struct {
	mu   sync.Mutex
	max  int
	last []byte
}

func (s *segTracker) note(n int) {
	s.mu.Lock()
	if n > s.max {
		s.max = n
	}
	s.mu.Unlock()
}

func (s *segTracker) keep(blob []byte) {
	s.mu.Lock()
	s.last = blob
	s.mu.Unlock()
}

// dumpArtifact writes the tracker's last snapshot into the directory
// named by RESUME_EQUIV_ARTIFACT_DIR (set by the CI snapshot job);
// no-op in local runs without the variable.
func (s *segTracker) dumpArtifact(t *testing.T, name string, workers int) {
	t.Helper()
	dir := os.Getenv("RESUME_EQUIV_ARTIFACT_DIR")
	s.mu.Lock()
	blob := s.last
	s.mu.Unlock()
	if dir == "" || blob == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-w%d.snap", name, workers))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Logf("artifact write: %v", err)
		return
	}
	t.Logf("divergence snapshot written to %s (replay with indrasim -snapshot-in)", path)
}

// segmentedRunLoop drives a cell in segments: run to each snapshot
// point, serialize the chip, revive it into a fresh chip from the
// blob, and continue on the revived chip. Instret accumulates across
// segments; Cycles, Violations and Halted are absolute chip state and
// come from the final segment.
func segmentedRunLoop(points []uint64, tr *segTracker) RunLoopFunc {
	return func(ch *chip.Chip, maxInstr uint64) (*chip.Chip, chip.RunResult, error) {
		if maxInstr == 0 {
			maxInstr = 1 << 62
		}
		var total chip.RunResult
		var ran uint64
		segs := 0
		defer func() { tr.note(segs) }()
		finish := func(res chip.RunResult) chip.RunResult {
			total.Instret += res.Instret
			total.Cycles = res.Cycles
			total.Violations = res.Violations
			total.Halted = res.Halted
			return total
		}
		for _, p := range points {
			if p <= ran || p >= maxInstr {
				continue
			}
			res, err := ch.Run(p - ran)
			if err == nil {
				// Halted before the point: the run is over.
				return ch, finish(res), nil
			}
			if !errors.Is(err, chip.ErrInstrLimit) {
				return ch, finish(res), err
			}
			total.Instret += res.Instret
			ran += res.Instret
			blob := snapshot.Save(ch)
			tr.keep(blob)
			restored, err := snapshot.Load(blob)
			if err != nil {
				return ch, total, err
			}
			ch = restored
			segs++
		}
		res, err := ch.Run(maxInstr - ran)
		return ch, finish(res), err
	}
}

func TestResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("segmented experiment replay is not short")
	}
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (generate with TestGoldenDeterminism -update-golden): %v", err)
			}
			for _, workers := range []int{1, 8} {
				var tr segTracker
				o := goldenOpts
				o.Workers = workers
				o.RunLoop = segmentedRunLoop(resumePoints, &tr)
				got, err := tc.run(o)
				if err != nil {
					t.Fatalf("workers=%d: segmented run: %v", workers, err)
				}
				if got != string(want) {
					t.Errorf("workers=%d: segmented output diverges from uninterrupted golden %s\n--- segmented ---\n%s--- golden ---\n%s",
						workers, path, got, want)
					tr.dumpArtifact(t, tc.name, workers)
				}
				// table4 is a static table (no simulation); every other
				// case has at least one cell long enough to cross every
				// snapshot point.
				if tc.name != "table4" && tr.max < len(resumePoints) {
					t.Errorf("workers=%d: deepest cell crossed %d of %d snapshot points — restores are not exercising the format",
						workers, tr.max, len(resumePoints))
				}
			}
		})
	}
}

// TestResumeMidAttack segments straight through attack detection and
// recovery: snapshot points dense enough that at least one lands
// between the exploit's delivery and its rollback, proving pending
// violations, shadow-stack state and checkpoint rollbacks survive the
// round-trip.
func TestResumeMidAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("attack replay is not short")
	}
	opts := Options{
		Requests: 3, Seed: 1,
		Attacks: []attack.Kind{attack.StackSmash, attack.DoSCrash},
	}
	base, err := RunService("httpd", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Violations()) == 0 && base.Recovery().MicroRecoveries+base.Recovery().MacroRecoveries == 0 {
		t.Fatal("baseline run neither detected nor recovered — test is not exercising attacks")
	}
	// Dense points: every 10k instructions across the whole run.
	var points []uint64
	for p := uint64(10_000); p < base.Result.Instret; p += 10_000 {
		points = append(points, p)
	}
	var tr segTracker
	segOpts := opts
	segOpts.RunLoop = segmentedRunLoop(points, &tr)
	seg, err := RunService("httpd", segOpts)
	if err != nil {
		t.Fatalf("segmented run: %v", err)
	}
	if tr.max == 0 {
		t.Fatal("no restores happened")
	}
	if got, want := seg.Summary, base.Summary; got != want {
		t.Errorf("segmented summary %+v != uninterrupted %+v", got, want)
	}
	if got, want := seg.Result, base.Result; got != want {
		t.Errorf("segmented result %+v != uninterrupted %+v", got, want)
	}
}
