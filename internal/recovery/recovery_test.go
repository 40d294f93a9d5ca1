package recovery

import (
	"testing"

	"indra/internal/asm"
	"indra/internal/cache"
	"indra/internal/checkpoint"
	"indra/internal/cpu"
	"indra/internal/device"
	"indra/internal/mem"
	"indra/internal/monitor"
	"indra/internal/oslite"
	"indra/internal/tlb"
	"indra/internal/trace"
	"indra/internal/watchdog"
)

// nullEnv is a do-nothing cpu.Environment; recovery tests drive the
// core's context directly rather than executing instructions.
type nullEnv struct{}

func (nullEnv) Syscall(c *cpu.Core, num int) (uint64, error) { return 0, nil }
func (nullEnv) EmitTrace(r trace.Record) uint64              { return 0 }
func (nullEnv) PendingViolation() bool                       { return false }
func (nullEnv) PreLoad(va uint32) uint64                     { return 0 }
func (nullEnv) PreStore(va uint32) uint64                    { return 0 }

type fixture struct {
	kern *oslite.Kernel
	proc *oslite.Process
	core *cpu.Core
	mon  *monitor.Monitor
	mgr  *Manager
}

type nullNet struct{}

func (nullNet) Recv(uint64) (oslite.Request, bool) { return oslite.Request{}, false }
func (nullNet) Send(uint64, []byte, uint64)        {}

type nullHooks struct{}

func (nullHooks) SyncPoint(*oslite.Process) (uint64, error) { return 0, nil }
func (nullHooks) RequestStart(*oslite.Process, oslite.CPU)  {}
func (nullHooks) RequestDone(*oslite.Process, uint64)       {}
func (nullHooks) Now() uint64                               { return 0 }
func (nullHooks) CoreID() int                               { return 1 }

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	phys := mem.NewPhysical(16 << 20)
	wd := watchdog.New(watchdog.Config{Privileged: watchdog.CoreMask(1)})
	kern := oslite.NewKernel(phys, 1<<20, 16<<20, device.NewDisk(phys, wd, nil), nullNet{}, nullHooks{})
	prog, err := asm.Assemble("_start:\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	proc, err := kern.Spawn(oslite.SpawnConfig{
		Name: "svc", Prog: prog,
		NewScheme: func(m checkpoint.Memory) checkpoint.Scheme {
			e, err := checkpoint.NewEngine(checkpoint.DefaultConfig(), m, nil)
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	core := cpu.New(cpu.Config{
		ID:        1,
		Phys:      phys,
		Watchdog:  wd,
		Hierarchy: cache.NewHierarchy(cache.DefaultHierarchyConfig(), nil),
		ITLB:      tlb.New(tlb.DefaultITLB()),
		DTLB:      tlb.New(tlb.DefaultDTLB()),
		CAMSize:   8,
		Env:       nullEnv{},
	})
	core.SetProcess(proc.PID, proc.AS)
	core.Restore(kern.InitialContext(proc), false)
	mon := monitor.New(monitor.DefaultCosts())
	mon.RegisterApp(&monitor.AppInfo{PID: proc.PID, Name: "svc",
		CodePages: map[uint32]bool{}, Funcs: map[uint32]bool{}, Exports: map[uint32]bool{}})
	mgr := NewManager(cfg, mon, nil)
	return &fixture{kern: kern, proc: proc, core: core, mon: mon, mgr: mgr}
}

// write performs a tracked store into the process's data page.
func (f *fixture) write(va, v uint32) {
	f.proc.Ckpt.PreStore(va)
	if err := f.proc.AS.Write32(va, v); err != nil {
		panic(err)
	}
}

func (f *fixture) read(va uint32) uint32 {
	f.proc.Ckpt.PreLoad(va)
	v, err := f.proc.AS.Read32(va)
	if err != nil {
		panic(err)
	}
	return v
}

func TestMicroRecoveryRestoresEverything(t *testing.T) {
	f := newFixture(t, Config{})
	data := f.proc.Prog.DataBase

	// Commit request 1.
	f.mgr.OnRequestStart(f.proc, f.core)
	f.write(data, 111)
	f.mgr.OnRequestDone(f.proc)

	// Request 2: corrupt registers, memory, resources, shadow stack.
	f.core.SetReg(5, 0xAAAA)
	f.core.SetPC(f.proc.Prog.Entry)
	f.mgr.OnRequestStart(f.proc, f.core)
	snapCtx := f.core.Context()

	f.core.SetReg(5, 0xBBBB)
	f.core.SetPC(0xBAD)
	f.write(data, 222)
	f.proc.CurrentReq = 9
	f.mon.RestoreShadow(1, f.proc.PID, []monitor.Frame{{Ret: 1, SP: 2}})

	cycles := f.mgr.OnFailure(f.proc, f.core)
	if cycles == 0 {
		t.Fatal("recovery must cost cycles")
	}
	if f.core.Reg(5) != snapCtx.Regs[5] || f.core.PC() != snapCtx.PC {
		t.Fatal("context not restored")
	}
	if got := f.read(data); got != 111 {
		t.Fatalf("memory %d, want committed 111", got)
	}
	if f.proc.CurrentReq != 0 {
		t.Fatal("current request not cleared")
	}
	if f.mon.ShadowDepth(1, f.proc.PID) != 0 {
		t.Fatal("shadow stack not rewound")
	}
	st := f.mgr.Stats()
	if st.MicroRecoveries != 1 || st.MacroRecoveries != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestGTSSkipAfterFailure(t *testing.T) {
	f := newFixture(t, Config{})
	eng := f.proc.Ckpt.(*checkpoint.Engine)

	f.mgr.OnRequestStart(f.proc, f.core)
	g1 := eng.GTS()
	f.mgr.OnFailure(f.proc, f.core)
	// Retry: the era is reused (Figure 6 loops back without GTS++).
	f.mgr.OnRequestStart(f.proc, f.core)
	if eng.GTS() != g1 {
		t.Fatalf("GTS advanced across a failure: %d -> %d", g1, eng.GTS())
	}
	f.mgr.OnRequestDone(f.proc)
	// Next request after success advances again.
	f.mgr.OnRequestStart(f.proc, f.core)
	if eng.GTS() != g1+1 {
		t.Fatalf("GTS after success %d, want %d", eng.GTS(), g1+1)
	}
}

func TestMacroCheckpointAndEscalation(t *testing.T) {
	f := newFixture(t, Config{MacroPeriod: 2, ConsecutiveFailLimit: 2})
	data := f.proc.Prog.DataBase

	// Two successful requests trigger a macro checkpoint on the third
	// request's entry.
	for i := 0; i < 2; i++ {
		f.mgr.OnRequestStart(f.proc, f.core)
		f.write(data, uint32(10+i))
		f.mgr.OnRequestDone(f.proc)
	}
	f.mgr.OnRequestStart(f.proc, f.core) // takes macro (value 11 committed)
	if f.mgr.Stats().MacroCkpts != 1 {
		t.Fatalf("macro checkpoints %d", f.mgr.Stats().MacroCkpts)
	}

	// A "dormant" corruption: value diverges from the micro-committed
	// state in a way micro recovery cannot repair (simulate by directly
	// writing without tracking — damage from a previous, committed era).
	if err := f.proc.AS.Write32(data+8, 0x666); err != nil {
		t.Fatal(err)
	}

	// Fail repeatedly: first two failures are micro; the third escalates
	// to the macro checkpoint.
	f.mgr.OnFailure(f.proc, f.core)
	f.mgr.OnRequestStart(f.proc, f.core)
	f.mgr.OnFailure(f.proc, f.core)
	f.mgr.OnRequestStart(f.proc, f.core)
	f.mgr.OnFailure(f.proc, f.core)

	st := f.mgr.Stats()
	if st.MacroRecoveries != 1 {
		t.Fatalf("macro recoveries %d (stats %+v)", st.MacroRecoveries, st)
	}
	if got := f.read(data + 8); got != 0 {
		t.Fatalf("macro restore left dormant damage: %#x", got)
	}
	if got := f.read(data); got != 11 {
		t.Fatalf("macro image wrong: %d, want 11", got)
	}
}

func TestOverBudget(t *testing.T) {
	f := newFixture(t, Config{InstrBudget: 5})
	f.mgr.OnRequestStart(f.proc, f.core)
	f.proc.CurrentReq = 3
	if f.mgr.OverBudget(f.proc, f.core) {
		t.Fatal("fresh request over budget")
	}
	// Execute some instructions.
	for i := 0; i < 10; i++ {
		if err := f.core.Step(); err != nil {
			break
		}
		if f.core.Halted() {
			f.core.SetHalted(false)
			f.core.SetPC(f.proc.Prog.Entry)
		}
	}
	if !f.mgr.OverBudget(f.proc, f.core) {
		t.Fatal("budget not enforced")
	}
	if f.mgr.Stats().BudgetKills == 0 {
		t.Fatal("budget kill not counted")
	}
	// No in-flight request: never over budget.
	f.proc.CurrentReq = 0
	if f.mgr.OverBudget(f.proc, f.core) {
		t.Fatal("idle process over budget")
	}
}

func TestDefaultsApplied(t *testing.T) {
	m := NewManager(Config{}, monitor.New(monitor.DefaultCosts()), nil)
	cfg := m.Config()
	def := DefaultConfig()
	if cfg.MacroPeriod != def.MacroPeriod || cfg.ConsecutiveFailLimit != def.ConsecutiveFailLimit || cfg.InstrBudget != def.InstrBudget {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestFailureBeforeFirstRequestPanics(t *testing.T) {
	f := newFixture(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.mgr.OnFailure(f.proc, f.core)
}

// TestDefaultPolicyPinned pins every default knob. In particular the
// macro period must stay at the paper's suggested 10,000 requests —
// a drive-by "tune the defaults" change shows up here, not as silent
// golden churn.
func TestDefaultPolicyPinned(t *testing.T) {
	got := DefaultConfig()
	want := Config{
		MacroPeriod:          10000,
		ConsecutiveFailLimit: 3,
		InstrBudget:          50_000_000,
		HandlerCycles:        1200,
	}
	if got != want {
		t.Fatalf("DefaultConfig() = %+v, want %+v", got, want)
	}
}

// TestConsecutiveFailLimitFallback walks the Figure 8 escalation edge:
// with ConsecutiveFailLimit N, exactly N failures recover micro, the
// N+1-th falls back to the macro checkpoint exactly once, and the
// counter reset makes the next failure micro again.
func TestConsecutiveFailLimitFallback(t *testing.T) {
	const limit = 3
	f := newFixture(t, Config{MacroPeriod: 1, ConsecutiveFailLimit: limit})

	// One committed request, then a second entry to take the macro.
	f.mgr.OnRequestStart(f.proc, f.core)
	f.mgr.OnRequestDone(f.proc)
	f.mgr.OnRequestStart(f.proc, f.core)
	if f.mgr.Stats().MacroCkpts != 1 {
		t.Fatalf("macro checkpoints %d, want 1", f.mgr.Stats().MacroCkpts)
	}

	for i := 1; i <= limit; i++ {
		f.mgr.OnFailure(f.proc, f.core)
		st := f.mgr.Stats()
		if st.MicroRecoveries != uint64(i) || st.MacroRecoveries != 0 {
			t.Fatalf("after failure %d: %+v", i, st)
		}
		f.mgr.OnRequestStart(f.proc, f.core)
	}
	f.mgr.OnFailure(f.proc, f.core) // limit+1: escalate
	st := f.mgr.Stats()
	if st.MicroRecoveries != limit || st.MacroRecoveries != 1 {
		t.Fatalf("escalation fired wrong: %+v", st)
	}
	// Counter reset: the next failure goes micro, not macro again.
	f.mgr.OnRequestStart(f.proc, f.core)
	f.mgr.OnFailure(f.proc, f.core)
	st = f.mgr.Stats()
	if st.MicroRecoveries != limit+1 || st.MacroRecoveries != 1 {
		t.Fatalf("counter did not reset after macro: %+v", st)
	}
}

func TestRetryBackoff(t *testing.T) {
	f := newFixture(t, Config{
		ConsecutiveFailLimit: 100,
		RetryBackoffCycles:   1000,
		RetryBackoffCap:      3000,
	})
	base := f.mgr.Config().HandlerCycles
	f.mgr.OnRequestStart(f.proc, f.core)

	want := []uint64{0, 1000, 2000, 3000, 3000} // doubling, then capped
	for i, extra := range want {
		got := f.mgr.OnFailure(f.proc, f.core)
		// Subtract the checkpoint engine's Fail cost, which varies with
		// dirty state: isolate by comparing against a backoff-free twin.
		if got < base+extra {
			t.Fatalf("failure %d cost %d, want >= %d", i+1, got, base+extra)
		}
		if i == 0 && got >= base+1000 {
			t.Fatalf("first failure charged backoff: %d", got)
		}
		f.mgr.OnRequestStart(f.proc, f.core)
	}

	// Saturation: a huge failure count must not overflow into a tiny
	// (or zero) delay.
	if d := f.mgr.backoff(200); d != 3000 {
		t.Fatalf("saturated backoff %d, want cap 3000", d)
	}
	uncapped := NewManager(Config{RetryBackoffCycles: 1 << 62}, f.mon, nil)
	if d := uncapped.backoff(70); d != ^uint64(0) {
		t.Fatalf("overflow not saturated: %d", d)
	}
	// Zero config: no backoff at any depth.
	plain := NewManager(Config{}, f.mon, nil)
	if d := plain.backoff(50); d != 0 {
		t.Fatalf("disabled backoff charged %d", d)
	}
}

func TestForceMacro(t *testing.T) {
	f := newFixture(t, Config{MacroPeriod: 1, HandlerCycles: 500})
	data := f.proc.Prog.DataBase

	// Before any macro checkpoint exists, escalation must refuse.
	if _, ok := f.mgr.ForceMacro(f.proc, f.core); ok {
		t.Fatal("ForceMacro succeeded with no macro checkpoint")
	}

	f.mgr.OnRequestStart(f.proc, f.core)
	f.write(data, 77)
	f.mgr.OnRequestDone(f.proc)
	f.mgr.OnRequestStart(f.proc, f.core) // takes macro with data == 77
	if f.mgr.Stats().MacroCkpts != 1 {
		t.Fatalf("macro checkpoints %d", f.mgr.Stats().MacroCkpts)
	}

	// Damage the process as a stalled-monitor window would leave it:
	// untracked corruption plus a hijacked context.
	if err := f.proc.AS.Write32(data, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	f.core.SetPC(0xBAD)
	f.proc.CurrentReq = 5

	cycles, ok := f.mgr.ForceMacro(f.proc, f.core)
	if !ok || cycles == 0 {
		t.Fatalf("ForceMacro = (%d, %v)", cycles, ok)
	}
	if got := f.read(data); got != 77 {
		t.Fatalf("macro restore left %#x, want 77", got)
	}
	if f.core.PC() == 0xBAD {
		t.Fatal("context not restored")
	}
	if f.proc.CurrentReq != 0 {
		t.Fatal("current request not cleared")
	}
	st := f.mgr.Stats()
	if st.MacroRecoveries != 1 || st.MicroRecoveries != 0 {
		t.Fatalf("stats %+v", st)
	}
}
