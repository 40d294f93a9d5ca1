package cpu

import (
	"fmt"
	"testing"
)

// TestDebugBlock pins the divergence-artifact format the differential
// harness prints for each engine: the header line, one dispatch slot
// per line with a fused pair on a single line, and the stop at the
// first terminator (the halt past the computed jump is not listed).
func TestDebugBlock(t *testing.T) {
	h := newHarness(t, `
_start:
  la r2, target
  add r3, r2, r2
  jalr r0, r2, 0
target:
  halt
`)
	entry := h.prog.Entry
	want := fmt.Sprintf("block entry va=%08x pa=%08x version=%d ninstr=4\n", entry, entry, h.phys.PageVersion(entry)) +
		"  00010000  lui   rd=2 rs1=0 rs2=0 imm=16  [fused lui+addi with]  00010004  addi  rd=2 rs1=2 rs2=0 imm=16\n" +
		"  00010008  add   rd=3 rs1=2 rs2=2 imm=0\n" +
		"  0001000c  jalr  rd=0 rs1=2 rs2=0 imm=0\n"
	if got := h.core.DebugBlock(entry); got != want {
		t.Fatalf("DebugBlock(entry):\n%s\nwant:\n%s", got, want)
	}

	// Entered mid-pair, the walk starts a fresh slot at the addi.
	want = fmt.Sprintf("block entry va=%08x pa=%08x version=%d ninstr=3\n", entry+4, entry+4, h.phys.PageVersion(entry)) +
		"  00010004  addi  rd=2 rs1=2 rs2=0 imm=16\n" +
		"  00010008  add   rd=3 rs1=2 rs2=2 imm=0\n" +
		"  0001000c  jalr  rd=0 rs1=2 rs2=0 imm=0\n"
	if got := h.core.DebugBlock(entry + 4); got != want {
		t.Fatalf("DebugBlock(entry+4):\n%s\nwant:\n%s", got, want)
	}
}
