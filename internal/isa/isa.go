// Package isa defines SRV32, the 32-bit RISC instruction set executed by
// the simulated cores in the INDRA reproduction.
//
// SRV32 is deliberately small: fixed 32-bit encodings, sixteen general
// purpose registers, byte-addressable little-endian memory. It exists so
// that the rest of the system (caches, TLBs, the trace FIFO, the monitor,
// the delta checkpoint engine) can observe a *real* dynamic instruction
// stream — fetches, calls, returns, computed jumps and stores — rather
// than a synthetic statistical one.
//
// Instruction formats (op is always bits [31:24]):
//
//	R: op rd rs1 rs2 -           register-register ALU
//	I: op rd rs1 imm16           ALU immediate, loads, JALR
//	S: op rs1 rs2 imm16          stores, branches
//	U: op rd imm20               LUI, JAL
//
// Immediates are sign-extended except for LUI, whose 20-bit immediate
// fills the upper bits of rd.
package isa

import "fmt"

// Register names. R0 is hardwired to zero; writes to it are ignored.
const (
	R0  = 0 // always zero
	RV  = 1 // return value / first syscall argument
	RA1 = 1 // syscall arg 1 (alias of RV)
	RA2 = 2 // syscall arg 2
	RA3 = 3 // syscall arg 3
	RA4 = 4 // syscall arg 4
	RT0 = 5 // caller-saved temporaries
	RT1 = 6
	RT2 = 7
	RT3 = 8
	RS0 = 9 // callee-saved
	RS1 = 10
	RS2 = 11
	RS3 = 12
	RGP = 13 // global pointer (static data base)
	RSP = 14 // stack pointer
	RLR = 15 // link register
)

// NumRegs is the number of architectural general purpose registers.
const NumRegs = 16

// Op is an SRV32 opcode.
type Op uint8

// Opcodes. The numeric values are part of the binary encoding and must
// remain stable: assembled images embed them.
const (
	OpNop  Op = iota
	OpLui     // U: rd = imm20 << 12
	OpAddi    // I: rd = rs1 + imm
	OpAndi    // I
	OpOri     // I
	OpXori    // I
	OpSlli    // I (shift amount = imm & 31)
	OpSrli    // I
	OpSrai    // I
	OpAdd     // R
	OpSub     // R
	OpAnd     // R
	OpOr      // R
	OpXor     // R
	OpSll     // R
	OpSrl     // R
	OpSra     // R
	OpSlt     // R: rd = (rs1 < rs2) signed
	OpSltu    // R: unsigned
	OpMul     // R
	OpDiv     // R (division by zero yields all-ones, no trap)
	OpRem     // R
	OpLw      // I: rd = mem32[rs1+imm]
	OpLb      // I: sign-extended byte load
	OpLbu     // I: zero-extended byte load
	OpSw      // S: mem32[rs1+imm] = rs2
	OpSb      // S: mem8[rs1+imm] = rs2
	OpBeq     // S: PC-relative branch, byte offset
	OpBne     // S
	OpBlt     // S (signed)
	OpBge     // S (signed)
	OpBltu    // S
	OpBgeu    // S
	OpJal     // U: rd = PC+4; PC += imm20 (byte offset). rd=R0 is a plain jump.
	OpJalr    // I: rd = PC+4; PC = (rs1+imm) &^ 1. Returns and computed jumps.
	OpSys     // I: system call, number = imm16, args in r1..r4, result in r1
	OpHalt    // core stops
	opMax
)

var opNames = [...]string{
	OpNop: "nop", OpLui: "lui", OpAddi: "addi", OpAndi: "andi", OpOri: "ori",
	OpXori: "xori", OpSlli: "slli", OpSrli: "srli", OpSrai: "srai",
	OpAdd: "add", OpSub: "sub", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpSll: "sll", OpSrl: "srl", OpSra: "sra", OpSlt: "slt", OpSltu: "sltu",
	OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpLw: "lw", OpLb: "lb", OpLbu: "lbu", OpSw: "sw", OpSb: "sb",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpBltu: "bltu", OpBgeu: "bgeu",
	OpJal: "jal", OpJalr: "jalr", OpSys: "sys", OpHalt: "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < opMax }

// Format describes how an opcode's operands are encoded.
type Format uint8

const (
	FmtR Format = iota // rd, rs1, rs2
	FmtI               // rd, rs1, imm16
	FmtS               // rs1, rs2, imm16
	FmtU               // rd, imm20
)

var opFormats = [...]Format{
	OpNop: FmtR, OpLui: FmtU, OpAddi: FmtI, OpAndi: FmtI, OpOri: FmtI,
	OpXori: FmtI, OpSlli: FmtI, OpSrli: FmtI, OpSrai: FmtI,
	OpAdd: FmtR, OpSub: FmtR, OpAnd: FmtR, OpOr: FmtR, OpXor: FmtR,
	OpSll: FmtR, OpSrl: FmtR, OpSra: FmtR, OpSlt: FmtR, OpSltu: FmtR,
	OpMul: FmtR, OpDiv: FmtR, OpRem: FmtR,
	OpLw: FmtI, OpLb: FmtI, OpLbu: FmtI, OpSw: FmtS, OpSb: FmtS,
	OpBeq: FmtS, OpBne: FmtS, OpBlt: FmtS, OpBge: FmtS,
	OpBltu: FmtS, OpBgeu: FmtS,
	OpJal: FmtU, OpJalr: FmtI, OpSys: FmtI, OpHalt: FmtR,
}

// FormatOf returns the encoding format of an opcode.
func FormatOf(o Op) Format {
	if !o.Valid() {
		return FmtR
	}
	return opFormats[o]
}

// Inst is a decoded SRV32 instruction.
type Inst struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32 // sign-extended; for LUI/JAL this is the raw 20-bit field value
}

// Word size and instruction size in bytes.
const (
	WordBytes = 4
	InstBytes = 4
)

// Encode packs an instruction into its 32-bit binary form.
func Encode(in Inst) uint32 {
	w := uint32(in.Op) << 24
	switch FormatOf(in.Op) {
	case FmtR:
		w |= uint32(in.Rd&0xF) << 20
		w |= uint32(in.Rs1&0xF) << 16
		w |= uint32(in.Rs2&0xF) << 12
	case FmtI:
		w |= uint32(in.Rd&0xF) << 20
		w |= uint32(in.Rs1&0xF) << 16
		w |= uint32(uint16(in.Imm))
	case FmtS:
		w |= uint32(in.Rs1&0xF) << 20
		w |= uint32(in.Rs2&0xF) << 16
		w |= uint32(uint16(in.Imm))
	case FmtU:
		w |= uint32(in.Rd&0xF) << 20
		w |= uint32(in.Imm) & 0xFFFFF
	}
	return w
}

// Decode unpacks a 32-bit word into an instruction. Undefined opcodes
// decode with Op preserved so the core can raise an illegal-instruction
// fault; callers should check Inst.Op.Valid().
func Decode(w uint32) Inst {
	op := Op(w >> 24)
	in := Inst{Op: op}
	switch FormatOf(op) {
	case FmtR:
		in.Rd = uint8(w>>20) & 0xF
		in.Rs1 = uint8(w>>16) & 0xF
		in.Rs2 = uint8(w>>12) & 0xF
	case FmtI:
		in.Rd = uint8(w>>20) & 0xF
		in.Rs1 = uint8(w>>16) & 0xF
		in.Imm = int32(int16(uint16(w)))
	case FmtS:
		in.Rs1 = uint8(w>>20) & 0xF
		in.Rs2 = uint8(w>>16) & 0xF
		in.Imm = int32(int16(uint16(w)))
	case FmtU:
		in.Rd = uint8(w>>20) & 0xF
		imm := w & 0xFFFFF
		// sign-extend the 20-bit field
		in.Imm = int32(imm<<12) >> 12
	}
	return in
}

// Predecoded is the flattened, dispatch-ready form of an instruction:
// Decode's field unpacking plus every per-instruction derivation the
// execution loop would otherwise redo on each dynamic visit — opcode
// validity and the control-transfer class. The ALU and address
// generation consume the immediate as uint32(Imm), which costs nothing
// at dispatch. Cores cache one Predecoded per static instruction
// and revalidate it against the code page's write version, so the
// decode work is paid once per (page content, address) instead of once
// per executed instruction.
type Predecoded struct {
	Op    Op
	Rd    uint8
	Rs1   uint8
	Rs2   uint8
	Valid bool
	Ctl   ControlKind // Classify of the instruction, precomputed
	Imm   int32       // sign-extended immediate (Decode semantics)
}

// Predecode decodes w and flattens it for cached dispatch. The result
// is equivalent to Decode plus Op.Valid plus Classify on every field.
func Predecode(w uint32) Predecoded {
	in := Decode(w)
	return Predecoded{
		Op:    in.Op,
		Rd:    in.Rd,
		Rs1:   in.Rs1,
		Rs2:   in.Rs2,
		Valid: in.Op.Valid(),
		Ctl:   Classify(in),
		Imm:   in.Imm,
	}
}

// regName returns the conventional assembly name for a register index.
func regName(r uint8) string {
	switch r {
	case RGP:
		return "gp"
	case RSP:
		return "sp"
	case RLR:
		return "lr"
	default:
		return fmt.Sprintf("r%d", r)
	}
}

// Disasm renders an instruction in SRV32 assembly syntax.
func Disasm(in Inst) string {
	switch FormatOf(in.Op) {
	case FmtR:
		if in.Op == OpNop || in.Op == OpHalt {
			return in.Op.String()
		}
		return fmt.Sprintf("%s %s, %s, %s", in.Op, regName(in.Rd), regName(in.Rs1), regName(in.Rs2))
	case FmtI:
		switch in.Op {
		case OpLw, OpLb, OpLbu:
			return fmt.Sprintf("%s %s, %d(%s)", in.Op, regName(in.Rd), in.Imm, regName(in.Rs1))
		case OpJalr:
			return fmt.Sprintf("%s %s, %s, %d", in.Op, regName(in.Rd), regName(in.Rs1), in.Imm)
		case OpSys:
			return fmt.Sprintf("%s %d", in.Op, in.Imm)
		default:
			return fmt.Sprintf("%s %s, %s, %d", in.Op, regName(in.Rd), regName(in.Rs1), in.Imm)
		}
	case FmtS:
		switch in.Op {
		case OpSw, OpSb:
			return fmt.Sprintf("%s %s, %d(%s)", in.Op, regName(in.Rs2), in.Imm, regName(in.Rs1))
		default:
			return fmt.Sprintf("%s %s, %s, %d", in.Op, regName(in.Rs1), regName(in.Rs2), in.Imm)
		}
	case FmtU:
		return fmt.Sprintf("%s %s, %d", in.Op, regName(in.Rd), in.Imm)
	}
	return in.Op.String()
}

// IsBranch reports whether op is a conditional branch.
func (o Op) IsBranch() bool { return o >= OpBeq && o <= OpBgeu }

// IsLoad reports whether op reads data memory.
func (o Op) IsLoad() bool { return o == OpLw || o == OpLb || o == OpLbu }

// IsStore reports whether op writes data memory.
func (o Op) IsStore() bool { return o == OpSw || o == OpSb }

// ControlKind classifies control-transfer instructions for monitoring.
type ControlKind uint8

const (
	CtlNone    ControlKind = iota
	CtlCall                // JAL or JALR with rd != R0 (link captured)
	CtlReturn              // JALR rd=R0 via link register
	CtlJump                // direct jump (JAL rd=R0)
	CtlCompute             // computed jump (JALR rd=R0, rs1 != LR)
	CtlBranch              // conditional branch
)

// Classify determines the control-transfer class of an instruction, used
// by the core's trace tap to decide what to report to the resurrector.
func Classify(in Inst) ControlKind {
	switch {
	case in.Op == OpJal && in.Rd != R0:
		return CtlCall
	case in.Op == OpJal:
		return CtlJump
	case in.Op == OpJalr && in.Rd != R0:
		return CtlCall
	case in.Op == OpJalr && in.Rs1 == RLR:
		return CtlReturn
	case in.Op == OpJalr:
		return CtlCompute
	case in.Op.IsBranch():
		return CtlBranch
	}
	return CtlNone
}
