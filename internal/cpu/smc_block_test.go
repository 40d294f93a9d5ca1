package cpu

import (
	"testing"

	"indra/internal/checkpoint"
	"indra/internal/oslite"
	"indra/internal/snapshot/wire"
)

// These tests extend TestSelfModifyingCodeFlushesPredecode to the
// block executor, which runs a visit straight off the decoded pages:
// the four ways its decodings can go stale that a version check at
// page entry alone does not cover — a store landing ahead of the PC on
// the executing page, a checkpoint rollback rewriting a code page
// between visits, a load whose checkpoint hook lazily restores a line
// of the executing page, and a snapshot restore installing a different
// memory image whose page versions collide with pages decoded from
// another history.

// remapTextRWX gives a harness the JIT-like posture the SMC tests
// need (the default harness maps text r-x).
func remapTextRWX(h *harness) {
	for va := h.prog.TextBase &^ uint32(oslite.PageBytes-1); va < h.prog.TextEnd(); va += oslite.PageBytes {
		h.as.Map(va, va, oslite.PermR|oslite.PermW|oslite.PermX)
	}
}

// runAllBlocks drives the core through the block engine until HALT.
func runAllBlocks(t *testing.T, c *Core) {
	t.Helper()
	for i := 0; !c.Halted(); i++ {
		if i > 1000 {
			t.Fatal("program did not halt under block execution")
		}
		if _, err := c.RunBlocks(1 << 20); err != nil {
			t.Fatal(err)
		}
	}
}

// runBlockAttempts consumes exactly n instruction attempts through the
// block engine (the engine may stop at any boundary; keep going).
func runBlockAttempts(t *testing.T, c *Core, n uint64) {
	t.Helper()
	for n > 0 && !c.Halted() {
		k, err := c.RunBlocks(n)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			t.Fatal("block engine made no progress")
		}
		n -= k
	}
}

// TestBlockMidBlockStoreInvalidates pins the hardest self-modifying
// case for the block executor: a store that overwrites an instruction
// *later in the same straight-line block*. At build time the patch
// site decoded to the original instruction; the executed store must
// force re-entry and a rebuild so the patched semantics run — per-step
// execution would see them, so block execution must too.
func TestBlockMidBlockStoreInvalidates(t *testing.T) {
	h := newHarness(t, `
_start:
  la r2, patch
  la r3, donor
  lw r4, 0(r3)
  sw r4, 0(r2)      # same block: no control transfer before patch
patch:
  addi r1, r1, 1
  halt
donor:
  addi r1, r1, 100  # never executed in place; copied over patch
`)
	remapTextRWX(h)
	runAllBlocks(t, h.core)
	if got := h.core.Reg(1); got != 100 {
		t.Fatalf("r1 = %d, want 100 (stale block executed the pre-store decoding of its own tail)", got)
	}

	// The scalar engine is the reference semantics: it must agree.
	ref := newHarness(t, `
_start:
  la r2, patch
  la r3, donor
  lw r4, 0(r3)
  sw r4, 0(r2)      # same block: no control transfer before patch
patch:
  addi r1, r1, 1
  halt
donor:
  addi r1, r1, 100  # never executed in place; copied over patch
`)
	remapTextRWX(ref)
	ref.run(t, 100)
	if got, want := h.core.Reg(1), ref.core.Reg(1); got != want {
		t.Fatalf("block r1 = %d, scalar r1 = %d", got, want)
	}
}

// TestRollbackRestoreInvalidatesCachedBlock pins coherence against the
// checkpoint engine's recovery path: a rollback that lazily restores a
// code page's pre-image (checkpoint.Engine writes it back through
// WriteLine) must invalidate the block decoded from the corrupted
// content, exactly as an ordinary store would.
func TestRollbackRestoreInvalidatesCachedBlock(t *testing.T) {
	h := newHarness(t, `
_start:
  jal lr, f
  jal lr, f
  jal lr, f
  halt
f:
patch:
  addi r1, r1, 1
  ret
donor:
  addi r1, r1, 100
`)
	remapTextRWX(h)
	patch := h.prog.Symbols["patch"]
	donor := h.prog.Symbols["donor"]
	eng, err := checkpoint.NewEngine(checkpoint.DefaultConfig(), h.as, nil)
	if err != nil {
		t.Fatal(err)
	}

	// First call runs the original f and caches its block: jal + addi
	// + ret is exactly 3 attempts.
	runBlockAttempts(t, h.core, 3)
	if got := h.core.Reg(1); got != 1 {
		t.Fatalf("after first call r1 = %d, want 1", got)
	}

	// Corrupt f under the engine's watch (models the attack store the
	// checkpoint scheme exists to undo): back up the pre-image line,
	// then patch.
	eng.PreStore(patch)
	w, err := h.as.Read32(donor)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.as.Write32(patch, w); err != nil {
		t.Fatal(err)
	}

	// Second call must execute the corrupted instruction.
	runBlockAttempts(t, h.core, 3)
	if got := h.core.Reg(1); got != 101 {
		t.Fatalf("after corrupting call r1 = %d, want 101", got)
	}

	// Failure detected: roll the era back and restore eagerly. The
	// restoration writes the pre-image under the cached (corrupted)
	// block — its page version moves, so the block must rebuild.
	eng.Fail()
	lines, _ := eng.DrainRollbacks()
	if lines == 0 {
		t.Fatal("rollback restored no lines")
	}

	// Third call must run the restored original, not the cached
	// corrupted block.
	runBlockAttempts(t, h.core, 4)
	if !h.core.Halted() {
		t.Fatal("program did not halt")
	}
	if got := h.core.Reg(1); got != 102 {
		t.Fatalf("after rollback r1 = %d, want 102 (stale decodes survived the page restore)", got)
	}
}

// TestBlockLoadRestoreInvalidates pins the load-side hazard: the
// checkpoint engine restores a rolled-back line lazily, on the first
// load that touches it, through Physical.WriteBytes. When that line
// holds code ahead of the PC on the executing page, the walk must drop
// its decodings after the load, exactly as after a store — per-step
// execution decodes the restored bytes.
func TestBlockLoadRestoreInvalidates(t *testing.T) {
	const src = `
_start:
  la r2, patch
  lw r4, 0(r2)      # lazily restores patch's line
patch:
  addi r1, r1, 1
  halt
donor:
  addi r1, r1, 100  # copied over patch before the rollback
`
	// Back up patch's line in the current era, corrupt it with the
	// donor word, then fail the era without draining: the line stays
	// rolled back until its next access.
	corrupt := func(h *harness) {
		remapTextRWX(h)
		patch := h.prog.Symbols["patch"]
		eng, err := checkpoint.NewEngine(checkpoint.DefaultConfig(), h.as, nil)
		if err != nil {
			t.Fatal(err)
		}
		h.env.preLoad = eng.PreLoad
		eng.PreStore(patch)
		w, err := h.as.Read32(h.prog.Symbols["donor"])
		if err != nil {
			t.Fatal(err)
		}
		if err := h.as.Write32(patch, w); err != nil {
			t.Fatal(err)
		}
		eng.Fail()
	}

	h := newHarness(t, src)
	corrupt(h)
	runAllBlocks(t, h.core)

	ref := newHarness(t, src)
	corrupt(ref)
	ref.run(t, 100)
	if got := ref.core.Reg(1); got != 1 {
		t.Fatalf("scalar r1 = %d, want 1 (the load did not restore the line)", got)
	}
	if got, want := h.core.Reg(1), ref.core.Reg(1); got != want {
		t.Fatalf("block r1 = %d, scalar r1 = %d (stale decode ran after a load restored its line)", got, want)
	}
}

// TestSnapshotRestoreFlushesBlockCache pins the warm-boot hazard that
// makes FlushDerived load-bearing in Core.DecodeState: page versions
// are restored verbatim from the snapshot, so a core that executed a
// different history can hold a decoded page whose recorded version
// matches the restored page exactly — while the bytes underneath
// differ. Version checks alone cannot catch that; the restore path
// must drop the decoded pages wholesale.
func TestSnapshotRestoreFlushesBlockCache(t *testing.T) {
	src := `
_start:
  jal lr, f
  jal lr, f
  halt
f:
patch:
  addi r1, r1, 1
  ret
donor:
  addi r1, r1, 100
`
	h := newHarness(t, src)
	remapTextRWX(h)
	patch := h.prog.Symbols["patch"]
	donor := h.prog.Symbols["donor"]

	// Twin harness, same program, untouched semantics — but with one
	// same-content write to the text page so its version counter
	// matches the patched harness below. Snapshot it at boot.
	twin := newHarness(t, src)
	remapTextRWX(twin)
	orig, err := twin.as.Read32(patch)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.as.Write32(patch, orig); err != nil {
		t.Fatal(err)
	}
	var snap wire.Writer
	twin.core.EncodeState(&snap)
	twin.phys.EncodeState(&snap)

	// Patch h's f and run it to completion on the block engine: both
	// calls execute the patched instruction and the predecoder holds
	// f's page decoded from the patched bytes.
	w, err := h.as.Read32(donor)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.as.Write32(patch, w); err != nil {
		t.Fatal(err)
	}
	runAllBlocks(t, h.core)
	if got := h.core.Reg(1); got != 200 {
		t.Fatalf("patched run r1 = %d, want 200", got)
	}
	stale := h.core.dec.pages[patch&^uint32(pageMask)]
	if stale == nil || !h.core.Predecoded(patch) {
		t.Fatal("patch site not held decoded after the run")
	}

	// Restore the twin's snapshot onto h. The restored page version
	// must equal the stale page's recorded version — that collision
	// is the hazard under test.
	r := wire.NewReader(snap.Bytes())
	h.core.DecodeState(r)
	h.phys.DecodeState(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got := h.phys.PageVersion(patch); got != stale.version {
		t.Fatalf("restored page version %d != stale page version %d: the test lost its version collision", got, stale.version)
	}
	if len(h.core.dec.pages) != 0 || h.core.Predecoded(patch) {
		t.Fatal("decoded pages not flushed by state restore")
	}

	// Re-run from the restored state: memory says the original f, so
	// the result must be 2 — a surviving stale page would yield 200.
	runAllBlocks(t, h.core)
	if got := h.core.Reg(1); got != 2 {
		t.Fatalf("restored run r1 = %d, want 2 (stale block executed after snapshot restore)", got)
	}
}
