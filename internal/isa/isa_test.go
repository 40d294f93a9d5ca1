package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: OpNop},
		{Op: OpHalt},
		{Op: OpLui, Rd: 3, Imm: 0x7FFFF},
		{Op: OpLui, Rd: 3, Imm: -1},
		{Op: OpAddi, Rd: 1, Rs1: 2, Imm: -32768},
		{Op: OpAddi, Rd: 1, Rs1: 2, Imm: 32767},
		{Op: OpAdd, Rd: 5, Rs1: 6, Rs2: 7},
		{Op: OpLw, Rd: 4, Rs1: RSP, Imm: -4},
		{Op: OpSw, Rs1: RSP, Rs2: 9, Imm: 124},
		{Op: OpBeq, Rs1: 1, Rs2: 2, Imm: -8},
		{Op: OpJal, Rd: RLR, Imm: 2048},
		{Op: OpJal, Rd: R0, Imm: -4},
		{Op: OpJalr, Rd: R0, Rs1: RLR},
		{Op: OpSys, Imm: 2},
	}
	for _, in := range cases {
		got := Decode(Encode(in))
		if got != in {
			t.Errorf("round trip %+v -> %+v", in, got)
		}
	}
}

// TestEncodeDecodeQuick verifies the round trip over randomized valid
// instructions (property-based).
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(opRaw uint8, rd, rs1, rs2 uint8, immRaw int32) bool {
		op := Op(opRaw % uint8(opMax))
		in := Inst{Op: op, Rd: rd % NumRegs, Rs1: rs1 % NumRegs, Rs2: rs2 % NumRegs}
		switch FormatOf(op) {
		case FmtR:
			// no immediate
		case FmtI, FmtS:
			in.Imm = int32(int16(immRaw))
		case FmtU:
			in.Imm = (immRaw << 12) >> 12
		}
		if FormatOf(op) == FmtS {
			in.Rd = 0 // S format has no rd
		}
		if FormatOf(op) == FmtR {
			in.Imm = 0
		}
		if FormatOf(op) == FmtI {
			in.Rs2 = 0
		}
		if FormatOf(op) == FmtU {
			in.Rs1, in.Rs2 = 0, 0
		}
		return Decode(Encode(in)) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeInvalidOpcode(t *testing.T) {
	w := uint32(0xFF) << 24
	in := Decode(w)
	if in.Op.Valid() {
		t.Fatalf("opcode 0xFF should be invalid, got %v", in.Op)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		in   Inst
		want ControlKind
	}{
		{Inst{Op: OpJal, Rd: RLR}, CtlCall},
		{Inst{Op: OpJal, Rd: R0}, CtlJump},
		{Inst{Op: OpJalr, Rd: RLR, Rs1: 5}, CtlCall},
		{Inst{Op: OpJalr, Rd: R0, Rs1: RLR}, CtlReturn},
		{Inst{Op: OpJalr, Rd: R0, Rs1: 5}, CtlCompute},
		{Inst{Op: OpBeq}, CtlBranch},
		{Inst{Op: OpAdd}, CtlNone},
		{Inst{Op: OpSw}, CtlNone},
	}
	for _, c := range cases {
		if got := Classify(c.in); got != c.want {
			t.Errorf("Classify(%v %v) = %v, want %v", c.in.Op, c.in, got, c.want)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpLw.IsLoad() || !OpLb.IsLoad() || !OpLbu.IsLoad() {
		t.Error("load predicates")
	}
	if OpSw.IsLoad() || !OpSw.IsStore() || !OpSb.IsStore() {
		t.Error("store predicates")
	}
	for op := OpBeq; op <= OpBgeu; op++ {
		if !op.IsBranch() {
			t.Errorf("%v should be a branch", op)
		}
	}
	if OpJal.IsBranch() || OpAdd.IsBranch() {
		t.Error("non-branches classified as branches")
	}
}

func TestDisasm(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpNop}, "nop"},
		{Inst{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Inst{Op: OpAddi, Rd: 1, Rs1: RSP, Imm: -4}, "addi r1, sp, -4"},
		{Inst{Op: OpLw, Rd: 4, Rs1: RSP, Imm: 8}, "lw r4, 8(sp)"},
		{Inst{Op: OpSw, Rs1: RGP, Rs2: 2, Imm: 0}, "sw r2, 0(gp)"},
		{Inst{Op: OpSys, Imm: 3}, "sys 3"},
		{Inst{Op: OpJalr, Rd: R0, Rs1: RLR}, "jalr r0, lr, 0"},
	}
	for _, c := range cases {
		if got := Disasm(c.in); got != c.want {
			t.Errorf("Disasm = %q, want %q", got, c.want)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for op := OpNop; op < opMax; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d lacks a name", op)
		}
	}
	if !strings.HasPrefix(Op(200).String(), "op(") {
		t.Error("unknown opcode should format numerically")
	}
}

// TestLoadStoreRange pins the opcode order the block executor relies
// on: internal/cpu tests a memory access with the one unsigned compare
// op-OpLw <= OpSb-OpLw, which holds only while the loads and stores
// are exactly the contiguous opcodes OpLw..OpSb.
func TestLoadStoreRange(t *testing.T) {
	for op := OpNop; op < opMax; op++ {
		if got, want := op-OpLw <= OpSb-OpLw, op.IsLoad() || op.IsStore(); got != want {
			t.Errorf("%v: range compare = %v, IsLoad() || IsStore() = %v", op, got, want)
		}
	}
}
