// Package difftest is the differential block-vs-scalar execution
// harness: it drives a simulation twice — the chip under test on the
// basic-block threaded engine, and a twin revived from the same
// snapshot forced onto per-instruction scalar dispatch — in lockstep
// segments, comparing architectural state at every segment boundary.
//
// The strategy follows RepTFD's replay-based dual execution: the
// scalar interpreter is the reference semantics, the block engine the
// optimized path, and equality is checked on replay at instruction
// granularity rather than only on end-to-end outputs. Each boundary
// compares, per core: PC, all general-purpose registers, the halt
// flag and the full architectural counter set (instret, cycles,
// branches, mispredicts, stalls); per chip: the violation log and a
// page-version digest of physical memory. The run's final boundary
// adds a full memory-image digest. Any state the block engine
// observes, charges or mutates differently from the scalar engine
// shows up as a boundary mismatch within one segment of the offending
// instruction.
//
// On divergence the harness writes an artifact (when an artifact
// directory is configured): the mismatch description, the decoded
// form of the block at each engine's PC, and a scalar single-step
// trace window replayed from the run's start snapshot across the
// diverging segment.
package difftest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"indra/internal/chip"
	"indra/internal/cpu"
	"indra/internal/isa"
	"indra/internal/snapshot"
)

// Config parameterizes one differential run loop.
type Config struct {
	// Step is the lockstep segment length in instruction attempts
	// (default 4096). Smaller steps localize divergences more tightly
	// but cost more comparisons.
	Step uint64
	// Name labels the cell in errors and artifact file names.
	Name string
	// ArtifactDir receives divergence artifacts; empty falls back to
	// the DIFFTEST_ARTIFACT_DIR environment variable, and if that is
	// empty too, no artifacts are written.
	ArtifactDir string
}

// defaultStep bounds how far apart state comparisons are.
const defaultStep = 4096

// traceWindow caps the scalar single-step trace in artifacts.
const traceWindow = 128

// cellSeq disambiguates artifact files when one experiment fans out
// several cells under the same name.
var cellSeq atomic.Uint64

// coreState is the per-core architectural state compared at each
// boundary.
type coreState struct {
	PC     uint32
	Regs   [isa.NumRegs]uint32
	Halted bool
	Stats  cpu.Stats
}

// chipState is one boundary's comparable snapshot of a chip.
type chipState struct {
	Cores      []coreState
	MemVers    uint64
	Violations string
}

func capture(ch *chip.Chip) chipState {
	st := chipState{MemVers: ch.MemVersionDigest()}
	for i := 0; i < ch.CoreCount(); i++ {
		c := ch.Core(i)
		cs := coreState{PC: c.PC(), Halted: c.Halted(), Stats: c.Stats()}
		for r := 0; r < isa.NumRegs; r++ {
			cs.Regs[r] = c.Reg(r)
		}
		st.Cores = append(st.Cores, cs)
	}
	var v []string
	for _, viol := range ch.Violations() {
		v = append(v, viol.Kind.String())
	}
	st.Violations = strings.Join(v, ",")
	return st
}

// diff describes the first mismatch between two boundary states, or
// "" when they are equal.
func (a chipState) diff(b chipState) string {
	for i := range a.Cores {
		ac, bc := a.Cores[i], b.Cores[i]
		switch {
		case ac.PC != bc.PC:
			return fmt.Sprintf("core %d PC: block %08x scalar %08x", i, ac.PC, bc.PC)
		case ac.Halted != bc.Halted:
			return fmt.Sprintf("core %d halted: block %v scalar %v", i, ac.Halted, bc.Halted)
		case ac.Regs != bc.Regs:
			for r := range ac.Regs {
				if ac.Regs[r] != bc.Regs[r] {
					return fmt.Sprintf("core %d R%d: block %08x scalar %08x", i, r, ac.Regs[r], bc.Regs[r])
				}
			}
		case ac.Stats != bc.Stats:
			return fmt.Sprintf("core %d stats: block %+v scalar %+v", i, ac.Stats, bc.Stats)
		}
	}
	if a.MemVers != b.MemVers {
		return fmt.Sprintf("memory page-version digest: block %016x scalar %016x", a.MemVers, b.MemVers)
	}
	if a.Violations != b.Violations {
		return fmt.Sprintf("violations: block [%s] scalar [%s]", a.Violations, b.Violations)
	}
	return ""
}

// errText normalizes an error for cross-engine comparison.
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// Loop returns a run-loop driver for one simulation cell. Its
// signature matches the experiment layer's RunLoopFunc, so a test can
// assign it to ExpOptions.RunLoop and replay every golden cell under
// differential execution. The returned chip is the block-mode chip
// (its observable outputs feed the cell's figures); the scalar twin
// exists only to be compared and is dropped on exit.
func Loop(cfg Config) func(*chip.Chip, uint64) (*chip.Chip, chip.RunResult, error) {
	step := cfg.Step
	if step == 0 {
		step = defaultStep
	}
	return func(ch *chip.Chip, maxInstr uint64) (*chip.Chip, chip.RunResult, error) {
		if maxInstr == 0 {
			maxInstr = 1 << 62
		}
		start := snapshot.Save(ch)
		twin, err := snapshot.Load(start)
		if err != nil {
			return ch, chip.RunResult{}, fmt.Errorf("difftest %s: twin boot: %w", cfg.Name, err)
		}
		twin.SetScalarDispatch(true)

		var total chip.RunResult
		var ran uint64
		fail := func(seg string) (*chip.Chip, chip.RunResult, error) {
			path := dumpArtifact(cfg, start, ch, twin, ran, seg)
			loc := ""
			if path != "" {
				loc = " (artifact: " + path + ")"
			}
			return ch, total, fmt.Errorf("difftest %s: divergence after %d instructions: %s%s", cfg.Name, ran, seg, loc)
		}
		for {
			budget := step
			if maxInstr-ran < budget {
				budget = maxInstr - ran
			}
			resB, errB := ch.Run(budget)
			resS, errS := twin.Run(budget)
			if resB != resS {
				return fail(fmt.Sprintf("run result: block %+v scalar %+v", resB, resS))
			}
			if errText(errB) != errText(errS) {
				return fail(fmt.Sprintf("run error: block %q scalar %q", errText(errB), errText(errS)))
			}
			if d := capture(ch).diff(capture(twin)); d != "" {
				return fail(d)
			}
			ran += resB.Instret
			total.Instret += resB.Instret
			total.Cycles = resB.Cycles
			total.Violations = resB.Violations
			total.Halted = resB.Halted
			if errB == nil || !errors.Is(errB, chip.ErrInstrLimit) || ran >= maxInstr {
				// Halted, faulted identically, or out of budget: the
				// run is over. Seal it with the full-image digest.
				if bd, sd := ch.MemDigest(), twin.MemDigest(); bd != sd {
					return fail(fmt.Sprintf("final memory digest: block %016x scalar %016x", bd, sd))
				}
				return ch, total, errB
			}
		}
	}
}

// dumpArtifact writes a divergence report and returns its path ("" if
// no artifact directory is configured or the write failed). The
// report carries the decoded block at each engine's PC and a scalar
// reference trace replayed from the cell's start snapshot across the
// diverging segment.
func dumpArtifact(cfg Config, start []byte, block, scalar *chip.Chip, ran uint64, seg string) string {
	dir := cfg.ArtifactDir
	if dir == "" {
		dir = os.Getenv("DIFFTEST_ARTIFACT_DIR")
	}
	if dir == "" {
		return ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "difftest divergence: cell %q after %d instructions\n%s\n\n", cfg.Name, ran, seg)
	fmt.Fprintf(&sb, "--- block engine: decoded block at PC %08x ---\n%s\n",
		block.Core(0).PC(), block.Core(0).DebugBlock(block.Core(0).PC()))
	fmt.Fprintf(&sb, "--- scalar engine: decoded block at PC %08x ---\n%s\n",
		scalar.Core(0).PC(), scalar.Core(0).DebugBlock(scalar.Core(0).PC()))
	sb.WriteString(scalarTrace(start, ran))
	name := fmt.Sprintf("%s-%d.difftest", sanitize(cfg.Name), cellSeq.Add(1))
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		return ""
	}
	return path
}

// scalarTrace replays the cell from its start snapshot on the scalar
// engine up to the last consistent boundary, then single-steps across
// the diverging segment recording core 0's PC and instret.
func scalarTrace(start []byte, ran uint64) string {
	ref, err := snapshot.Load(start)
	if err != nil {
		return fmt.Sprintf("scalar trace: reload: %v\n", err)
	}
	ref.SetScalarDispatch(true)
	if ran > 0 {
		if _, err := ref.Run(ran); err != nil && !errors.Is(err, chip.ErrInstrLimit) {
			return fmt.Sprintf("scalar trace: fast-forward: %v\n", err)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- scalar reference trace (window of %d steps from last consistent boundary) ---\n", traceWindow)
	for i := 0; i < traceWindow; i++ {
		c := ref.Core(0)
		fmt.Fprintf(&sb, "%6d  pc=%08x instret=%d\n", i, c.PC(), c.Stats().Instret)
		res, err := ref.Run(1)
		if err != nil && !errors.Is(err, chip.ErrInstrLimit) {
			fmt.Fprintf(&sb, "        run: %v\n", err)
			break
		}
		if err == nil && res.Halted {
			sb.WriteString("        halted\n")
			break
		}
	}
	return sb.String()
}

func sanitize(s string) string {
	if s == "" {
		return "cell"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}
