package cpu

import (
	"errors"
	"math/rand"
	"testing"

	"indra/internal/asm"
	"indra/internal/cache"
	"indra/internal/isa"
	"indra/internal/mem"
	"indra/internal/oslite"
	"indra/internal/tlb"
	"indra/internal/trace"
	"indra/internal/watchdog"
)

// stubEnv satisfies Environment and records traces and hooks.
type stubEnv struct {
	traces   []trace.Record
	syscalls []int
	sysFn    func(c *Core, num int) (uint64, error)
	preLoad  func(va uint32) uint64
	stall    uint64
}

func (e *stubEnv) Syscall(c *Core, num int) (uint64, error) {
	e.syscalls = append(e.syscalls, num)
	if e.sysFn != nil {
		return e.sysFn(c, num)
	}
	return 0, nil
}

func (e *stubEnv) EmitTrace(r trace.Record) uint64 {
	e.traces = append(e.traces, r)
	return e.stall
}

func (e *stubEnv) PendingViolation() bool { return false }

func (e *stubEnv) PreLoad(va uint32) uint64 {
	if e.preLoad != nil {
		return e.preLoad(va)
	}
	return 0
}

func (e *stubEnv) PreStore(va uint32) uint64 { return 0 }

// harness assembles a program, maps it into an address space and
// returns a ready-to-run core.
type harness struct {
	core *Core
	env  *stubEnv
	prog *asm.Program
	as   *oslite.AddressSpace
	phys *mem.Physical
}

func newHarness(t *testing.T, src string) *harness {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	phys := mem.NewPhysical(8 << 20)
	as := oslite.NewAddressSpace(phys)
	mapRegion := func(base uint32, data []byte, perm oslite.Perm) {
		size := (uint32(len(data)) + oslite.PageBytes - 1) &^ (oslite.PageBytes - 1)
		if size == 0 {
			size = oslite.PageBytes
		}
		for off := uint32(0); off < size; off += oslite.PageBytes {
			as.Map(base+off, base+off, perm) // identity map for tests
		}
		if len(data) > 0 {
			if err := as.WriteBytes(base, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	mapRegion(prog.TextBase, prog.Text, oslite.PermR|oslite.PermX)
	mapRegion(prog.DataBase, prog.Data, oslite.PermR|oslite.PermW)
	// Small stack at 1MB.
	const stackTop = 1 << 20
	for off := uint32(0); off < 4*oslite.PageBytes; off += oslite.PageBytes {
		as.Map(stackTop-4*oslite.PageBytes+off, stackTop-4*oslite.PageBytes+off, oslite.PermR|oslite.PermW)
	}

	env := &stubEnv{}
	wd := watchdog.New(watchdog.Config{Privileged: watchdog.CoreMask(1)})
	core := New(Config{
		ID:           1,
		Phys:         phys,
		Watchdog:     wd,
		Hierarchy:    cache.NewHierarchy(cache.DefaultHierarchyConfig(), nil),
		ITLB:         tlb.New(tlb.DefaultITLB()),
		DTLB:         tlb.New(tlb.DefaultDTLB()),
		CAMSize:      32,
		BPredEntries: 512,
		Env:          env,
	})
	core.SetProcess(42, as)
	core.SetPC(prog.Entry)
	core.SetReg(isa.RSP, stackTop-16)
	core.SetReg(isa.RGP, prog.DataBase)
	return &harness{core: core, env: env, prog: prog, as: as, phys: phys}
}

// run steps until HALT or the limit, failing on any fault.
func (h *harness) run(t *testing.T, limit int) {
	t.Helper()
	for i := 0; i < limit; i++ {
		if h.core.Halted() {
			return
		}
		if err := h.core.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	t.Fatalf("program did not halt within %d steps", limit)
}

// runErr steps until a fault occurs and returns it.
func (h *harness) runErr(t *testing.T, limit int) error {
	t.Helper()
	for i := 0; i < limit; i++ {
		if h.core.Halted() {
			t.Fatal("halted before faulting")
		}
		if err := h.core.Step(); err != nil {
			return err
		}
	}
	t.Fatalf("no fault within %d steps", limit)
	return nil
}

func TestALUProgram(t *testing.T) {
	h := newHarness(t, `
_start:
  li r1, 6
  li r2, 7
  mul r3, r1, r2      # 42
  addi r3, r3, 58     # 100
  li r4, 3
  div r5, r3, r4      # 33
  rem r6, r3, r4      # 1
  sub r7, r3, r1      # 94
  slli r8, r1, 4      # 96
  slt r9, r1, r2      # 1
  sltu r10, r2, r1    # 0
  halt
`)
	h.run(t, 100)
	want := map[int]uint32{3: 100, 5: 33, 6: 1, 7: 94, 8: 96, 9: 1, 10: 0}
	for r, v := range want {
		if got := h.core.Reg(r); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestALUQuickVsGo(t *testing.T) {
	// Random operand pairs through ADD/SUB/AND/OR/XOR/SLT executed on
	// the core must match Go's arithmetic.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		a, b := rng.Uint32(), rng.Uint32()
		h := newHarness(t, `
_start:
  add r3, r1, r2
  sub r4, r1, r2
  and r5, r1, r2
  or r6, r1, r2
  xor r7, r1, r2
  sra r8, r1, r2
  halt
`)
		h.core.SetReg(1, a)
		h.core.SetReg(2, b)
		h.run(t, 20)
		if h.core.Reg(3) != a+b || h.core.Reg(4) != a-b ||
			h.core.Reg(5) != a&b || h.core.Reg(6) != a|b ||
			h.core.Reg(7) != a^b ||
			h.core.Reg(8) != uint32(int32(a)>>(b&31)) {
			t.Fatalf("ALU mismatch for %#x,%#x", a, b)
		}
	}
}

func TestR0IsHardwiredZero(t *testing.T) {
	h := newHarness(t, `
_start:
  addi r0, r0, 55
  add r1, r0, r0
  halt
`)
	h.run(t, 10)
	if h.core.Reg(0) != 0 || h.core.Reg(1) != 0 {
		t.Fatal("r0 not hardwired to zero")
	}
}

func TestLoadStore(t *testing.T) {
	h := newHarness(t, `
.data
v: .word 0
b: .byte 0
.text
_start:
  li r1, 0x12345678
  la r2, v
  sw r1, 0(r2)
  lw r3, 0(r2)
  li r4, 0xFF
  la r5, b
  sb r4, 0(r5)
  lbu r6, 0(r5)
  lb r7, 0(r5)
  halt
`)
	h.run(t, 50)
	if h.core.Reg(3) != 0x12345678 {
		t.Fatalf("lw %#x", h.core.Reg(3))
	}
	if h.core.Reg(6) != 0xFF {
		t.Fatalf("lbu %#x", h.core.Reg(6))
	}
	if h.core.Reg(7) != 0xFFFFFFFF {
		t.Fatalf("lb sign extension %#x", h.core.Reg(7))
	}
	st := h.core.Stats()
	if st.Loads != 3 || st.Stores != 2 {
		t.Fatalf("load/store counters %+v", st)
	}
}

func TestBranchLoop(t *testing.T) {
	h := newHarness(t, `
_start:
  li r1, 0
  li r2, 10
loop:
  addi r1, r1, 1
  blt r1, r2, loop
  halt
`)
	h.run(t, 100)
	if h.core.Reg(1) != 10 {
		t.Fatalf("loop result %d", h.core.Reg(1))
	}
}

func TestCallReturnTraces(t *testing.T) {
	h := newHarness(t, `
_start:
  call f
  halt
.func f
f:
  addi r1, r1, 1
  ret
`)
	h.run(t, 50)
	var call, ret *trace.Record
	for i := range h.env.traces {
		switch h.env.traces[i].Kind {
		case trace.KindCall:
			call = &h.env.traces[i]
		case trace.KindReturn:
			ret = &h.env.traces[i]
		}
	}
	if call == nil || ret == nil {
		t.Fatalf("missing traces: %v", h.env.traces)
	}
	fAddr := h.prog.Symbols["f"]
	if call.Target != fAddr || call.Ret != h.prog.Entry+4 {
		t.Fatalf("call record %+v", call)
	}
	if ret.Target != h.prog.Entry+4 {
		t.Fatalf("return record %+v", ret)
	}
	if call.PID != 42 || call.Core != 1 {
		t.Fatal("identity tags")
	}
}

func TestIndirectCallTrace(t *testing.T) {
	h := newHarness(t, `
.data
fp: .word f
.text
_start:
  la r5, fp
  lw r6, 0(r5)
  callr r6
  halt
.func f
f:
  ret
`)
	h.run(t, 50)
	found := false
	for _, r := range h.env.traces {
		if r.Kind == trace.KindCall && r.Indirect {
			found = true
			if r.Target != h.prog.Symbols["f"] {
				t.Fatalf("indirect call target %#x", r.Target)
			}
		}
	}
	if !found {
		t.Fatal("no indirect call trace")
	}
}

func TestCodeOriginTraceOnIL1Fill(t *testing.T) {
	h := newHarness(t, `
_start:
  halt
`)
	h.run(t, 5)
	found := false
	for _, r := range h.env.traces {
		if r.Kind == trace.KindCodeOrigin {
			found = true
			if r.Target != h.prog.TextBase&^uint32(oslite.PageBytes-1) {
				t.Fatalf("origin page %#x", r.Target)
			}
		}
	}
	if !found {
		t.Fatal("first fetch should emit a code-origin record")
	}
	if h.core.Stats().IL1Fills == 0 || h.core.Stats().OriginChecks == 0 {
		t.Fatal("counters")
	}
}

func TestSyscallDispatch(t *testing.T) {
	h := newHarness(t, `
_start:
  sys 12
  halt
`)
	h.run(t, 10)
	if len(h.env.syscalls) != 1 || h.env.syscalls[0] != 12 {
		t.Fatalf("syscalls %v", h.env.syscalls)
	}
}

func TestSyscallFaultPropagates(t *testing.T) {
	h := newHarness(t, `
_start:
  sys 2
  halt
`)
	h.env.sysFn = func(c *Core, num int) (uint64, error) {
		return 0, errors.New("boom")
	}
	err := h.runErr(t, 10)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultSyscall {
		t.Fatalf("fault %v", err)
	}
}

func TestIllegalInstructionFault(t *testing.T) {
	h := newHarness(t, "_start:\n  nop\n  halt\n")
	// Corrupt the second instruction with an invalid opcode.
	h.phys.Write32(h.prog.TextBase+4, 0xFE000000)
	err := h.runErr(t, 10)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultIllegalInst {
		t.Fatalf("fault %v", err)
	}
}

func TestPageFault(t *testing.T) {
	h := newHarness(t, `
_start:
  li r1, 0x700000
  lw r2, 0(r1)
  halt
`)
	err := h.runErr(t, 10)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultPage {
		t.Fatalf("fault %v", err)
	}
}

func TestWriteProtectFault(t *testing.T) {
	h := newHarness(t, `
_start:
  la r1, _start
  sw r0, 0(r1)
  halt
`)
	err := h.runErr(t, 10)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultWriteProtect {
		t.Fatalf("fault %v", err)
	}
}

func TestWatchdogFault(t *testing.T) {
	h := newHarness(t, `
_start:
  lw r2, 0(r1)
  halt
`)
	// Map a virtual page onto a physical frame, then forbid the core
	// from that physical range.
	h.as.Map(0x600000, 0x600000, oslite.PermR|oslite.PermW)
	h.core.SetReg(1, 0x600000)
	wd := watchdog.New(watchdog.Config{
		Privileged: 0,
		Partitions: []watchdog.Partition{{Lo: 0, Hi: 0x400000, Cores: watchdog.CoreMask(1)}},
	})
	h.core.wd = wd
	err := h.runErr(t, 10)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultWatchdog {
		t.Fatalf("fault %v", err)
	}
}

func TestContextSaveRestore(t *testing.T) {
	h := newHarness(t, "_start:\n li r1, 9\n halt\n")
	h.run(t, 10)
	ctx := h.core.Context()
	if ctx.Regs[1] != 9 {
		t.Fatal("context capture")
	}
	ctx.Regs[1] = 77
	ctx.PC = h.prog.Entry
	h.core.Restore(ctx, true)
	if h.core.Reg(1) != 77 || h.core.PC() != h.prog.Entry {
		t.Fatal("context restore")
	}
	if h.core.Hierarchy().L1I().Contains(h.prog.TextBase) {
		t.Fatal("restore with flush must invalidate caches")
	}
}

func TestTraceStallAccounting(t *testing.T) {
	h := newHarness(t, `
_start:
  call f
  halt
.func f
f:
  ret
`)
	h.env.stall = 25
	h.run(t, 20)
	st := h.core.Stats()
	if st.TraceStall == 0 {
		t.Fatal("trace stalls not recorded")
	}
	if st.TraceStall%25 != 0 {
		t.Fatalf("stall %d not a multiple of the env's 25", st.TraceStall)
	}
	// Stalls must also appear in the cycle clock.
	if st.Cycles < st.TraceStall {
		t.Fatal("stalls not charged to the core clock")
	}
}

func TestFaultString(t *testing.T) {
	f := &Fault{Kind: FaultPage, PC: 0x100, Addr: 0x200, Err: errors.New("x")}
	if f.Error() == "" || FaultKind(99).String() != "fault" {
		t.Fatal("fault formatting")
	}
}
