// Package cpu implements the simulated SRV32 resurrectee core: an
// in-order execution engine with cycle accounting over the cache/TLB
// hierarchy, plus the INDRA hardware taps — the trace FIFO emission
// points for calls, returns and computed jumps, the IL1-fill
// code-origin tap with its CAM filter, and the checkpoint-engine hooks
// on loads and stores.
package cpu

import (
	"fmt"

	"indra/internal/cache"
	"indra/internal/isa"
	"indra/internal/mem"
	"indra/internal/oslite"
	"indra/internal/tlb"
	"indra/internal/trace"
	"indra/internal/watchdog"
)

// FaultKind classifies execution faults.
type FaultKind uint8

const (
	FaultIllegalInst FaultKind = iota
	FaultPage
	FaultWriteProtect
	FaultWatchdog
	FaultSyscall // a *oslite.ProcFault from the kernel
	FaultHaltInHandler
)

func (k FaultKind) String() string {
	switch k {
	case FaultIllegalInst:
		return "illegal-instruction"
	case FaultPage:
		return "page-fault"
	case FaultWriteProtect:
		return "write-protect"
	case FaultWatchdog:
		return "watchdog"
	case FaultSyscall:
		return "syscall-fault"
	case FaultHaltInHandler:
		return "halt-in-handler"
	}
	return "fault"
}

// Fault is an execution fault raised by Step. In INDRA these are not
// simulator errors: a fault on a resurrectee is a detection event that
// triggers recovery.
type Fault struct {
	Kind FaultKind
	PC   uint32
	Addr uint32
	Err  error
}

func (f *Fault) Error() string {
	return fmt.Sprintf("core fault %s at pc=%08x addr=%08x: %v", f.Kind, f.PC, f.Addr, f.Err)
}

// Environment is the chip-level machinery a core calls into: syscall
// dispatch, trace FIFO emission (which may stall the core), and the
// checkpoint engine hooks. All methods return modelled core cycles.
type Environment interface {
	// Syscall dispatches SYS num for the current process.
	Syscall(c *Core, num int) (cycles uint64, err error)
	// EmitTrace pushes a record toward the resurrector, returning the
	// stall cycles suffered if the FIFO was full.
	EmitTrace(rec trace.Record) (stall uint64)
	// PendingViolation reports whether a record this core emitted has
	// been verified as a violation that is awaiting recovery. The block
	// executor checks it after every EmitTrace so a detection stops
	// execution at exactly the instruction the per-step loop would.
	PendingViolation() bool
	// PreLoad/PreStore are the delta-checkpoint hardware hooks.
	PreLoad(va uint32) uint64
	PreStore(va uint32) uint64
}

// Stats aggregates per-core execution counters.
type Stats struct {
	Instret      uint64
	Cycles       uint64
	Loads        uint64
	Stores       uint64
	Calls        uint64
	Returns      uint64
	ComputedJmps uint64
	Branches     uint64
	Mispredicts  uint64
	IL1Fills     uint64
	OriginChecks uint64 // code-origin records actually emitted (post-CAM)
	TraceStall   uint64 // cycles stalled on a full FIFO
	SyncStall    uint64 // cycles stalled at syscall/I-O sync points
}

// Core is one simulated SRV32 core.
type Core struct {
	ID int

	regs [isa.NumRegs]uint32
	pc   uint32

	phys *mem.Physical
	as   *oslite.AddressSpace
	wd   *watchdog.Watchdog
	hier *cache.Hierarchy
	itlb *tlb.TLB
	dtlb *tlb.TLB
	cam  *CAM
	env  Environment

	pid    int
	halted bool
	stats  Stats

	// dec is the predecode cache, which the block executor (block.go)
	// also runs from in place; emitted flags that the last executed
	// instruction pushed a trace record, so the block executor knows
	// when to poll the environment for a pending violation.
	dec     predecoder
	emitted bool

	bpred      *BPred
	mispredict uint64 // penalty cycles per wrong prediction
}

// Config assembles a core.
type Config struct {
	ID        int
	Phys      *mem.Physical
	Watchdog  *watchdog.Watchdog
	Hierarchy *cache.Hierarchy
	ITLB      *tlb.TLB
	DTLB      *tlb.TLB
	CAMSize   int
	// BPredEntries sizes the bimodal branch predictor (0 = disabled:
	// every taken branch pays the redirect penalty).
	BPredEntries int
	// MispredictPenalty is the pipeline refill cost of a wrong branch
	// prediction, in cycles (default 5 when a predictor is present).
	MispredictPenalty uint64
	Env               Environment
}

// New builds a core. The address space and process identity are
// installed later via SetProcess (the OS decides what runs).
func New(cfg Config) *Core {
	penalty := cfg.MispredictPenalty
	if penalty == 0 {
		penalty = 5
	}
	return &Core{
		ID:         cfg.ID,
		phys:       cfg.Phys,
		wd:         cfg.Watchdog,
		hier:       cfg.Hierarchy,
		itlb:       cfg.ITLB,
		dtlb:       cfg.DTLB,
		cam:        NewCAM(cfg.CAMSize),
		bpred:      NewBPred(cfg.BPredEntries),
		mispredict: penalty,
		env:        cfg.Env,
		dec:        newPredecoder(),
	}
}

// SetProcess installs the address space and process identity the core
// executes, flushing translation and filter state.
func (c *Core) SetProcess(pid int, as *oslite.AddressSpace) {
	c.pid = pid
	c.as = as
	c.itlb.FlushAll()
	c.dtlb.FlushAll()
	c.cam.Reset()
	c.bpred.Reset()
}

// PID returns the current process identity (the paper's CR3 analogue).
func (c *Core) PID() int { return c.pid }

// Reg implements oslite.CPU.
func (c *Core) Reg(i int) uint32 { return c.regs[i] }

// SetReg implements oslite.CPU. Writes to R0 are ignored.
func (c *Core) SetReg(i int, v uint32) {
	if i != isa.R0 {
		c.regs[i] = v
	}
}

// PC implements oslite.CPU.
func (c *Core) PC() uint32 { return c.pc }

// SetPC implements oslite.CPU.
func (c *Core) SetPC(v uint32) { c.pc = v }

// Halted reports whether the core has stopped (HALT or process exit).
func (c *Core) Halted() bool { return c.halted }

// SetHalted lets the chip stop or restart the core (recovery resume).
func (c *Core) SetHalted(h bool) { c.halted = h }

// Stats returns a snapshot of the counters.
func (c *Core) Stats() Stats { return c.stats }

// Instret returns the retired-instruction count without copying the
// whole counter set (the run loop reads it after every visit).
func (c *Core) Instret() uint64 { return c.stats.Instret }

// ResetStats clears counters.
func (c *Core) ResetStats() { c.stats = Stats{} }

// Cycles returns the core's cycle clock.
func (c *Core) Cycles() uint64 { return c.stats.Cycles }

// AddCycles charges extra cycles to the core (chip-level stalls).
func (c *Core) AddCycles(n uint64) { c.stats.Cycles += n }

// AddSyncStall charges sync-point stall cycles (also counted in Cycles).
func (c *Core) AddSyncStall(n uint64) {
	c.stats.Cycles += n
	c.stats.SyncStall += n
}

// NoteSyncStall records sync-stall cycles that are charged to the core
// clock elsewhere (through the syscall cost path), so the counter stays
// meaningful without double-charging.
func (c *Core) NoteSyncStall(n uint64) { c.stats.SyncStall += n }

// traceStall charges a full-FIFO stall: the core clock advances while
// the resurrector drains a slot free.
func (c *Core) traceStall(n uint64) {
	c.stats.Cycles += n
	c.stats.TraceStall += n
}

// CAM exposes the code-origin filter for experiments.
func (c *Core) CAM() *CAM { return c.cam }

// BPred exposes the branch predictor for experiments.
func (c *Core) BPred() *BPred { return c.bpred }

// Hierarchy exposes the core's cache stack.
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Context returns the current register/PC state.
func (c *Core) Context() oslite.Context {
	var ctx oslite.Context
	copy(ctx.Regs[:], c.regs[:])
	ctx.PC = c.pc
	return ctx
}

// Restore installs a saved context (recovery) and flushes
// microarchitectural state: pipeline (implicit), caches and TLBs, per
// Section 2.3.3's stall/flush/resume control.
func (c *Core) Restore(ctx oslite.Context, flushCaches bool) {
	copy(c.regs[:], ctx.Regs[:])
	c.pc = ctx.PC
	if flushCaches {
		c.hier.InvalidateAll()
		c.itlb.FlushAll()
		c.dtlb.FlushAll()
		c.cam.Reset()
		c.bpred.Reset()
	}
}

const pageMask = oslite.PageBytes - 1

// emit pushes a trace record through the environment, charging any
// full-FIFO stall, and flags the emission so the block executor knows
// to poll for a pending violation before running further.
func (c *Core) emit(rec trace.Record) {
	c.emitted = true
	c.traceStall(c.env.EmitTrace(rec))
}

// fetchAt runs the fetch timing model below the TLB for the
// instruction at (pc, pa): the IL1 access and the code-origin tap on
// fills. Both the scalar fetch path and the block executor go through
// it, so IL1 counters and origin records stay identical between modes.
func (c *Core) fetchAt(pc, pa uint32) {
	ev := c.hier.Fetch(pa)
	c.stats.Cycles += ev.Cycles
	if ev.L1Miss {
		c.stats.IL1Fills++
		// Code-origin tap: the IL1 fill is checked against the CAM of
		// recently verified code pages; misses go to the resurrector.
		page := pc &^ uint32(pageMask)
		if !c.cam.Lookup(page) {
			c.stats.OriginChecks++
			c.emit(trace.Record{
				Kind: trace.KindCodeOrigin, Core: c.ID, PID: c.pid,
				PC: pc, Target: page,
			})
		}
	}
}

// fetch translates and fetches the instruction at pc, running the
// code-origin tap on IL1 fills. The returned instruction comes from
// the predecode cache: the timing model (TLB, IL1, origin tap) runs on
// every fetch, but the bit-level decode is paid only the first time a
// given physical word — under its current page contents — executes.
func (c *Core) fetch() (*isa.Predecoded, error) {
	pc := c.pc
	c.stats.Cycles += c.itlb.Access(pc / oslite.PageBytes)
	pa, _, err := c.as.Translate(pc)
	if err != nil {
		return nil, &Fault{Kind: FaultPage, PC: pc, Addr: pc, Err: err}
	}
	if err := c.wd.Check(c.ID, pa, watchdog.Execute); err != nil {
		return nil, &Fault{Kind: FaultWatchdog, PC: pc, Addr: pa, Err: err}
	}
	c.fetchAt(pc, pa)
	return c.dec.entry(c.phys, pa), nil
}

// dataAccess translates va and performs the hierarchy access; write
// selects store semantics (write-protect check plus checkpoint tap).
func (c *Core) dataAccess(va uint32, write bool) (uint32, error) {
	c.stats.Cycles += c.dtlb.Access(va / oslite.PageBytes)
	pa, perm, err := c.as.Translate(va)
	if err != nil {
		return 0, &Fault{Kind: FaultPage, PC: c.pc, Addr: va, Err: err}
	}
	op := watchdog.Read
	if write {
		op = watchdog.Write
		if perm&oslite.PermW == 0 {
			return 0, &Fault{Kind: FaultWriteProtect, PC: c.pc, Addr: va,
				Err: fmt.Errorf("store to %s page", perm)}
		}
	}
	if err := c.wd.Check(c.ID, pa, op); err != nil {
		return 0, &Fault{Kind: FaultWatchdog, PC: c.pc, Addr: pa, Err: err}
	}
	if write {
		c.stats.Cycles += c.env.PreStore(va)
		c.stats.Cycles += c.hier.Store(pa).Cycles
	} else {
		c.stats.Cycles += c.env.PreLoad(va)
		c.stats.Cycles += c.hier.Load(pa).Cycles
	}
	return pa, nil
}

// Step executes one instruction. A non-nil error is a *Fault (a
// detection event for the chip's recovery path), or a *oslite.ProcFault
// wrapped in a Fault for syscall-level failures. The core's cycle clock
// advances as a side effect.
func (c *Core) Step() error {
	if c.halted {
		return nil
	}
	in, err := c.fetch()
	if err != nil {
		return err
	}
	return c.execOne(in)
}

// execOne executes the already-fetched instruction in: validity check,
// retirement accounting, dispatch, and the PC update. It is the single
// dispatch body shared by Step and the block executor, so the two
// execution modes cannot drift.
func (c *Core) execOne(in *isa.Predecoded) error {
	if !in.Valid {
		return &Fault{Kind: FaultIllegalInst, PC: c.pc, Err: fmt.Errorf("opcode %d", uint8(in.Op))}
	}

	c.stats.Instret++
	c.stats.Cycles++ // base single-issue cost; memory costs added at taps
	nextPC := c.pc + isa.InstBytes

	rs1 := c.regs[in.Rs1]
	rs2 := c.regs[in.Rs2]

	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		c.halted = true

	case isa.OpLui:
		c.SetReg(int(in.Rd), uint32(in.Imm)<<12)
	case isa.OpAddi:
		c.SetReg(int(in.Rd), rs1+uint32(in.Imm))
	case isa.OpAndi:
		c.SetReg(int(in.Rd), rs1&uint32(in.Imm))
	case isa.OpOri:
		c.SetReg(int(in.Rd), rs1|uint32(in.Imm))
	case isa.OpXori:
		c.SetReg(int(in.Rd), rs1^uint32(in.Imm))
	case isa.OpSlli:
		c.SetReg(int(in.Rd), rs1<<(uint32(in.Imm)&31))
	case isa.OpSrli:
		c.SetReg(int(in.Rd), rs1>>(uint32(in.Imm)&31))
	case isa.OpSrai:
		c.SetReg(int(in.Rd), uint32(int32(rs1)>>(uint32(in.Imm)&31)))

	case isa.OpAdd:
		c.SetReg(int(in.Rd), rs1+rs2)
	case isa.OpSub:
		c.SetReg(int(in.Rd), rs1-rs2)
	case isa.OpAnd:
		c.SetReg(int(in.Rd), rs1&rs2)
	case isa.OpOr:
		c.SetReg(int(in.Rd), rs1|rs2)
	case isa.OpXor:
		c.SetReg(int(in.Rd), rs1^rs2)
	case isa.OpSll:
		c.SetReg(int(in.Rd), rs1<<(rs2&31))
	case isa.OpSrl:
		c.SetReg(int(in.Rd), rs1>>(rs2&31))
	case isa.OpSra:
		c.SetReg(int(in.Rd), uint32(int32(rs1)>>(rs2&31)))
	case isa.OpSlt:
		c.SetReg(int(in.Rd), boolTo(int32(rs1) < int32(rs2)))
	case isa.OpSltu:
		c.SetReg(int(in.Rd), boolTo(rs1 < rs2))
	case isa.OpMul:
		c.SetReg(int(in.Rd), rs1*rs2)
	case isa.OpDiv:
		if rs2 == 0 {
			c.SetReg(int(in.Rd), ^uint32(0))
		} else {
			c.SetReg(int(in.Rd), uint32(int32(rs1)/int32(rs2)))
		}
	case isa.OpRem:
		if rs2 == 0 {
			c.SetReg(int(in.Rd), rs1)
		} else {
			c.SetReg(int(in.Rd), uint32(int32(rs1)%int32(rs2)))
		}

	case isa.OpLw, isa.OpLb, isa.OpLbu:
		va := rs1 + uint32(in.Imm)
		c.stats.Loads++
		pa, err := c.dataAccess(va, false)
		if err != nil {
			return err
		}
		switch in.Op {
		case isa.OpLw:
			c.SetReg(int(in.Rd), c.phys.Read32(pa&^3))
		case isa.OpLb:
			c.SetReg(int(in.Rd), uint32(int32(int8(c.phys.Read8(pa)))))
		case isa.OpLbu:
			c.SetReg(int(in.Rd), uint32(c.phys.Read8(pa)))
		}

	case isa.OpSw, isa.OpSb:
		va := rs1 + uint32(in.Imm)
		c.stats.Stores++
		pa, err := c.dataAccess(va, true)
		if err != nil {
			return err
		}
		if in.Op == isa.OpSw {
			c.phys.Write32(pa&^3, rs2)
		} else {
			c.phys.Write8(pa, uint8(rs2))
		}

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		taken := false
		switch in.Op {
		case isa.OpBeq:
			taken = rs1 == rs2
		case isa.OpBne:
			taken = rs1 != rs2
		case isa.OpBlt:
			taken = int32(rs1) < int32(rs2)
		case isa.OpBge:
			taken = int32(rs1) >= int32(rs2)
		case isa.OpBltu:
			taken = rs1 < rs2
		case isa.OpBgeu:
			taken = rs1 >= rs2
		}
		c.stats.Branches++
		if !c.bpred.Update(c.pc, taken) {
			c.stats.Mispredicts++
			c.stats.Cycles += c.mispredict // pipeline refill
		}
		if taken {
			nextPC = c.pc + uint32(in.Imm)
		}

	case isa.OpJal:
		target := c.pc + uint32(in.Imm)
		if in.Rd != isa.R0 {
			c.stats.Calls++
			c.SetReg(int(in.Rd), c.pc+isa.InstBytes)
			c.emit(trace.Record{
				Kind: trace.KindCall, Core: c.ID, PID: c.pid,
				PC: c.pc, Target: target, Ret: c.pc + isa.InstBytes, SP: c.regs[isa.RSP],
			})
		}
		nextPC = target

	case isa.OpJalr:
		target := (rs1 + uint32(in.Imm)) &^ 1
		kind := in.Ctl
		switch kind {
		case isa.CtlCall:
			c.stats.Calls++
			link := c.pc + isa.InstBytes
			c.emit(trace.Record{
				Kind: trace.KindCall, Core: c.ID, PID: c.pid, Indirect: true,
				PC: c.pc, Target: target, Ret: link, SP: c.regs[isa.RSP],
			})
			c.SetReg(int(in.Rd), link)
		case isa.CtlReturn:
			c.stats.Returns++
			c.emit(trace.Record{
				Kind: trace.KindReturn, Core: c.ID, PID: c.pid,
				PC: c.pc, Target: target, SP: c.regs[isa.RSP],
			})
		default: // computed jump
			c.stats.ComputedJmps++
			c.emit(trace.Record{
				Kind: trace.KindControl, Core: c.ID, PID: c.pid, Indirect: true,
				PC: c.pc, Target: target,
			})
		}
		nextPC = target

	case isa.OpSys:
		cycles, err := c.env.Syscall(c, int(in.Imm))
		c.stats.Cycles += cycles
		if err != nil {
			return &Fault{Kind: FaultSyscall, PC: c.pc, Err: err}
		}
		// Recovery may have rewound the PC inside the syscall; in that
		// case (or process switch) the env owns control flow.
		if c.halted {
			return nil
		}

	default:
		return &Fault{Kind: FaultIllegalInst, PC: c.pc, Err: fmt.Errorf("unhandled op %v", in.Op)}
	}

	c.pc = nextPC
	return nil
}

func boolTo(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
