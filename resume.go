package indra

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"indra/internal/chip"
	"indra/internal/snapshot"
)

// Resumer makes long experiment runs crash-resumable. Installed as an
// ExpOptions.RunLoop, it segments every service run at a fixed
// instruction cadence and persists a progress file (accumulated
// instruction count + chip snapshot) after each segment. A run killed
// mid-flight — OOM, SIGKILL, power loss — restarts from its last
// progress file instead of instruction zero; a run that completes
// removes its file.
//
// Identity needs no registry: a run is keyed by the hash of its
// post-boot chip snapshot. Boot is deterministic, so the same cell's
// same run hashes identically across process restarts, and any change
// to the platform, program or request stream changes the key (a stale
// progress file is simply never matched again).
//
// Resumed output is byte-identical to an uninterrupted run: the resume
// equivalence harness holds that segmenting through Save/Load preserves
// every golden, and the progress file carries the instruction count
// executed before the crash so summed results match too.
//
// Safe for concurrent use (parallel experiment cells share one
// Resumer; distinct runs write distinct files).
type Resumer struct {
	// Dir receives the progress files (must exist).
	Dir string
	// Every is the snapshot cadence in executed instructions
	// (0 selects 2,000,000 — roughly thirty progress files per second
	// of simulator wall-clock).
	Every uint64

	resumed atomic.Uint64
	saved   atomic.Uint64
}

// ResumerStats counts the resumer's activity.
type ResumerStats struct {
	Resumed uint64 // runs continued from a progress file
	Saved   uint64 // progress snapshots written
}

// Stats snapshots the counters.
func (r *Resumer) Stats() ResumerStats {
	return ResumerStats{Resumed: r.resumed.Load(), Saved: r.saved.Load()}
}

// resumeMagic versions the progress-file envelope: magic, executed
// instruction count, then the chip snapshot (internal/snapshot format,
// which carries its own version gate).
const resumeMagic = "INDRRES1"

// RunLoop is the ExpOptions.RunLoop implementation.
func (r *Resumer) RunLoop(ch *chip.Chip, maxInstr uint64) (*chip.Chip, chip.RunResult, error) {
	every := r.Every
	if every == 0 {
		every = 2_000_000
	}

	entry := snapshot.Save(ch)
	sum := sha256.Sum256(entry)
	path := filepath.Join(r.Dir, fmt.Sprintf("%x.resume", sum[:12]))

	var ran uint64
	if blob, err := os.ReadFile(path); err == nil {
		if prior, restored, err := decodeResume(blob); err == nil {
			ch, ran = restored, prior
			r.resumed.Add(1)
		}
		// An undecodable progress file (torn write, version skew) is not
		// an error: the freshly booted chip is already in hand, so the
		// run restarts from zero and overwrites the file.
	}

	total, err := ch.RunSegmented(ran, maxInstr, every, func(ran uint64, done bool) error {
		if done { // every service halted: run complete
			os.Remove(path)
			return nil
		}
		if err := writeResume(path, ran, snapshot.Save(ch)); err != nil {
			return fmt.Errorf("indra: resume progress: %w", err)
		}
		r.saved.Add(1)
		return nil
	})
	return ch, total, err
}

// writeResume persists atomically (tmp + rename): a crash mid-write
// leaves the previous progress file intact, never a torn one.
func writeResume(path string, ran uint64, blob []byte) error {
	buf := make([]byte, 0, len(resumeMagic)+8+len(blob))
	buf = append(buf, resumeMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, ran)
	buf = append(buf, blob...)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func decodeResume(blob []byte) (ran uint64, ch *chip.Chip, err error) {
	if len(blob) < len(resumeMagic)+8 || string(blob[:len(resumeMagic)]) != resumeMagic {
		return 0, nil, errors.New("indra: not a resume progress file")
	}
	ran = binary.LittleEndian.Uint64(blob[len(resumeMagic):])
	ch, err = snapshot.Load(blob[len(resumeMagic)+8:])
	return ran, ch, err
}
