package isa

// Basic-block and superinstruction fusion rules. The CPU's block
// executor walks straight-line runs of predecoded instructions and
// collapses common adjacent pairs into fused dispatch slots; the rules
// live here, next to the ISA definition they interpret, so the
// executor, the differential harness and the fuzzer all share one
// source of truth.

// FuseKind identifies a superinstruction: an adjacent instruction pair
// the block executor dispatches as one slot. Fusion never changes
// architectural semantics — each kind is defined as "exactly the two
// scalar steps, back to back" — it only removes dispatch overhead (and,
// for FuseLuiAddi, a register round-trip).
type FuseKind uint8

const (
	FuseNone FuseKind = iota
	// FuseLuiAddi: lui rd, hi ; addi rd, rd, lo. The classic
	// load-32-bit-constant idiom; the sum (hi<<12)+lo becomes a single
	// register write.
	FuseLuiAddi
	// FuseCmpBranch: slt/sltu rd, a, b ; beq/bne with operands {rd, r0}.
	// The comparison result feeds the branch directly instead of
	// round-tripping through the register file and a second dispatch.
	FuseCmpBranch
	// FuseLoadOp: lw/lb/lbu rd, off(rs1) ; ALU op consuming rd. Fused at
	// the dispatch level only — both halves execute their exact scalar
	// step (the load can fault and must keep its precise semantics).
	FuseLoadOp
)

func (k FuseKind) String() string {
	switch k {
	case FuseNone:
		return "none"
	case FuseLuiAddi:
		return "lui+addi"
	case FuseCmpBranch:
		return "cmp+branch"
	case FuseLoadOp:
		return "load+op"
	}
	return "fuse(?)"
}

// EndsBlock reports whether in must terminate a basic block: every
// control transfer (the successor depends on execution), syscalls
// (the kernel may switch processes, rewind the PC, or halt the core),
// HALT, and undecodable words (the executor raises the illegal-
// instruction fault at the exact offending PC).
func EndsBlock(in *Predecoded) bool {
	if !in.Valid {
		return true
	}
	switch in.Op {
	case OpJal, OpJalr, OpSys, OpHalt:
		return true
	}
	return in.Op.IsBranch()
}

// plainALU reports ops that only read registers and write one register:
// no memory access, no control transfer, no environment interaction,
// and no fault path.
func plainALU(op Op) bool {
	switch op {
	case OpLui, OpAddi, OpAndi, OpOri, OpXori, OpSlli, OpSrli, OpSrai,
		OpAdd, OpSub, OpAnd, OpOr, OpXor, OpSll, OpSrl, OpSra,
		OpSlt, OpSltu, OpMul, OpDiv, OpRem:
		return true
	}
	return false
}

// Fuse classifies the superinstruction formed by the adjacent pair
// (a, b), or FuseNone. The conditions are deliberately conservative:
// every excluded edge case (R0 destinations, partially-overwritten
// idioms) would force the fused body to diverge from two scalar steps.
func Fuse(a, b *Predecoded) FuseKind {
	if !a.Valid || !b.Valid {
		return FuseNone
	}
	switch {
	case a.Op == OpLui && b.Op == OpAddi &&
		a.Rd != R0 && b.Rd == a.Rd && b.Rs1 == a.Rd:
		return FuseLuiAddi
	case (a.Op == OpSlt || a.Op == OpSltu) && a.Rd != R0 &&
		(b.Op == OpBeq || b.Op == OpBne) &&
		((b.Rs1 == a.Rd && b.Rs2 == R0) || (b.Rs1 == R0 && b.Rs2 == a.Rd)):
		return FuseCmpBranch
	case a.Op.IsLoad() && a.Rd != R0 && plainALU(b.Op) &&
		(b.Rs1 == a.Rd || (FormatOf(b.Op) == FmtR && b.Rs2 == a.Rd)):
		return FuseLoadOp
	}
	return FuseNone
}
