package chip

import (
	"errors"
	"fmt"

	"indra/internal/cpu"
	"indra/internal/monitor"
	"indra/internal/oslite"
	"indra/internal/tlb"
	"indra/internal/trace"
)

func newITLB() *tlb.TLB { return tlb.New(tlb.DefaultITLB()) }
func newDTLB() *tlb.TLB { return tlb.New(tlb.DefaultDTLB()) }

// syscall routes a SYS instruction to the kernel (with chip-level
// pre-handling for the calls that talk to the resurrector).
func (c *Chip) syscall(idx int, core *cpu.Core, num int) (uint64, error) {
	c.activeIdx = idx
	p := c.slots[idx].activeProc()
	if p == nil {
		return 0, fmt.Errorf("chip: syscall with no process on slot %d", idx)
	}
	switch num {
	case oslite.SysSetjmp:
		// Register a legitimate longjmp target with the resurrector.
		c.mon.RegisterSetjmp(p.PID, core.Reg(1), core.Reg(2))
	case oslite.SysDynCode:
		lo := core.Reg(1)
		c.mon.RegisterDynCode(p.PID, monitor.Region{Lo: lo, Hi: lo + core.Reg(2)})
	}
	cycles, err := c.kern.Syscall(p, core, num)
	if p.Halted {
		core.SetHalted(true)
	}
	// Requests start and end inside syscalls: re-read the budget stop.
	c.refreshBudgetAt(idx)
	return cycles, err
}

// emitTrace is the hardware FIFO push path. When monitoring is off (or
// the slot degraded fail-open) the tap is disabled entirely (no
// records, no stalls). Fault injection strikes here — a record can be
// silently lost or have one bit flipped at the write port. When the
// FIFO is full, FIFOStall blocks the resurrectee until the monitor
// frees an entry (Section 3.2.5's third synchronisation rule) while
// FIFODrop sheds the incoming record to keep the service running.
func (c *Chip) emitTrace(idx int, rec trace.Record) uint64 {
	if !c.cfg.Monitoring || c.slots[idx].unmonitored {
		return 0
	}
	core := c.cores[idx]
	now := core.Cycles()
	q := c.queues[idx]

	if c.inj != nil {
		if c.inj.DropRecord(now) {
			c.pstats.InjectedDrops++
			return 0
		}
		if c.inj.CorruptRecord(now, &rec) {
			c.pstats.InjectedCorrupts++
		}
	}

	// Let the monitor consume whatever it would have finished by now.
	c.drainUntil(idx, now)

	if q.Full() && c.cfg.FIFOPolicy == FIFODrop {
		c.noteFIFODrop(idx)
		return 0
	}

	var stall uint64
	for q.Full() {
		// Force-consume the head: the core waits for the monitor.
		head, _ := q.Pop()
		finish := c.verifyAt(idx, head)
		if finish > now+stall {
			stall = finish - now
		}
	}
	rec.EnqueuedAt = now + stall
	if !q.Push(rec) {
		panic("chip: FIFO push failed after drain")
	}
	return stall
}

// resOf returns the resurrector serving resurrectee slot idx
// (round-robin assignment).
func (c *Chip) resOf(idx int) int { return idx % len(c.monClks) }

// verifyAt runs one record through the monitor software of the slot's
// resurrector, advancing that resurrector's clock, and returns the
// record's completion time.
func (c *Chip) verifyAt(idx int, rec trace.Record) uint64 {
	r := c.resOf(idx)
	start := c.monClks[r]
	if rec.EnqueuedAt > start {
		start = rec.EnqueuedAt
	}
	cost, v := c.mon.Verify(rec)
	if c.inj != nil {
		if s := c.inj.MonitorStall(start); s > 0 {
			cost += s
			c.pstats.MonitorStallCycles += s
		}
	}
	c.monClks[r] = start + cost
	if v != nil && c.pending[idx] == nil {
		c.pending[idx] = v
		c.violationLog = append(c.violationLog, v)
		// Detection latency: cycles between the record leaving the core
		// and the monitor's verdict.
		c.om.violationLatency.Observe(c.monClks[r] - rec.EnqueuedAt)
		if c.tr != nil {
			c.tr.Instant("violation:"+rec.Kind.String(), c.cores[idx].ID, c.monClks[r])
		}
	}
	return c.monClks[r]
}

// drainUntil consumes every record the monitor would have finished by
// core time t.
func (c *Chip) drainUntil(idx int, t uint64) {
	q := c.queues[idx]
	for {
		head, ok := q.Peek()
		if !ok {
			return
		}
		start := c.monClks[c.resOf(idx)]
		if head.EnqueuedAt > start {
			start = head.EnqueuedAt
		}
		if start+c.cfg.MonitorCosts.Cost(head.Kind) > t {
			return
		}
		q.Pop()
		c.verifyAt(idx, head)
	}
}

// syncPoint drains the FIFO completely — the resurrectee stalls until
// every previously issued record is verified — and reports a pending
// violation as an error so the syscall aborts before I/O.
func (c *Chip) syncPoint(idx int) (uint64, error) {
	if !c.cfg.Monitoring {
		return 0, nil
	}
	core := c.cores[idx]
	now := core.Cycles()
	q := c.queues[idx]
	var finish uint64
	for {
		head, ok := q.Pop()
		if !ok {
			break
		}
		finish = c.verifyAt(idx, head)
	}
	var stall uint64
	if finish > now {
		stall = finish - now
	}
	core.NoteSyncStall(stall)
	if v := c.pending[idx]; v != nil {
		return stall, v
	}
	return stall, nil
}

// recoverSlot runs the recovery manager for slot idx and clears
// transient chip state tied to the rolled-back execution. When no
// checkpoint exists yet (corruption before the first request), the
// service is halted instead — nothing to revive to.
func (c *Chip) recoverSlot(idx int, cause error) {
	p := c.slots[idx].activeProc()
	core := c.cores[idx]
	port := c.slots[idx].activePort()

	// Records from the aborted execution are meaningless once the
	// shadow stack snapshot is restored: discard them unverified.
	c.queues[idx].DiscardAll()
	if r := c.resOf(idx); c.monClks[r] < core.Cycles() {
		c.monClks[r] = core.Cycles()
	}
	if port != nil && p.CurrentReq != 0 {
		port.Abort(p.CurrentReq, core.Cycles())
	}
	c.pending[idx] = nil
	defer c.refreshBudgetAt(idx) // each path below ends, replaces or halts the request
	if c.cfg.RebootRecovery {
		if err := c.rebootSlot(idx); err != nil {
			panic(err) // respawn of a previously loadable image cannot fail
		}
		return
	}
	if !c.rec.CanRecover(p) {
		core.SetHalted(true)
		p.Halted = true
		return
	}
	cycles := c.rec.OnFailure(p, core)
	c.om.rollbackCycles.Observe(cycles)
	c.tr.Complete("micro-rollback", core.ID, core.Cycles(), cycles)
	core.AddCycles(cycles)
}

// RunResult summarises a Run.
type RunResult struct {
	Instret    uint64
	Cycles     uint64 // max over resurrectee cores (they run concurrently)
	Violations int
	Halted     bool // all cores halted (request streams drained)
}

// ErrInstrLimit is returned when Run hits its instruction cap.
var ErrInstrLimit = errors.New("chip: instruction limit reached")

// Run steps the resurrectee cores until every service halts (request
// streams drained) or the instruction cap is hit. Faults and monitor
// detections trigger recovery in-line, exactly as the resurrector's
// stall/recover/resume control would.
//
// Each round gives every populated slot one visit, then runs the
// post-step sequence for it. A multi-resurrectee chip's visit is one
// Step: its cores interleave per instruction through shared DRAM
// open-row state, the resurrector clocks and the frame allocator, an
// order longer visits would perturb. A single-resurrectee chip runs a
// RunBlocks visit whose budget folds in every post-step trigger
// (visitBudget), so a visit can never run *past* a boundary a
// one-instruction visit would have acted on — it can only stop early
// (fault, halt, syscall, or an emission that flagged a pending
// violation), after which the post-step sequence runs at the same
// instruction boundary. ScalarDispatch makes every visit a Step.
func (c *Chip) Run(maxInstr uint64) (RunResult, error) {
	var res RunResult
	if maxInstr == 0 {
		maxInstr = 1 << 62
	}
	for idx := range c.slots {
		c.refreshBudgetAt(idx)
	}
	// Frames are queued host-side between Run calls, never during one,
	// so pending NIC work can only drain here: PollPending is re-read
	// after each poll and nowhere else.
	pollPending := c.nic.PollPending()
	fold := len(c.cores) == 1
	for {
		allHalted := true
		var executed uint64
		for idx, core := range c.cores {
			st := &c.slots[idx]
			p := st.activeProc()
			if p == nil {
				continue
			}
			if core.Halted() {
				// A core that is still halted here terminated its process
				// (stream drained, plain HALT outside a request, or an
				// unrecoverable detection — recoverable ones resumed the
				// core already). Mark it and hand the core to the next
				// runnable process, if any.
				p.Halted = true
				if !c.switchProcess(idx) {
					continue
				}
				p = st.activeProc()
			}
			allHalted = false
			c.activeIdx = idx

			var n uint64
			var err error
			if c.cfg.ScalarDispatch || !fold {
				n, err = 1, core.Step()
			} else {
				n, err = core.RunBlocks(c.visitBudget(idx, maxInstr-res.Instret, pollPending))
			}
			executed += n

			// Give the monitor a chance to catch up periodically even
			// when the core emits no records (e.g. injected-code loops).
			// The same point checks the resurrector's heartbeat: a record
			// sitting unverified past the interval means the monitor
			// stalled, and the chip escalates on the resurrectee's behalf.
			if c.cfg.Monitoring && core.Instret()-c.lastDrain[idx] >= DrainInterval {
				c.drainUntil(idx, core.Cycles())
				c.lastDrain[idx] = core.Instret()
				if c.checkHeartbeat(idx, core.Cycles()) {
					c.escalateStall(idx)
					if core.Halted() {
						continue // degraded fail-closed
					}
				}
			}

			// The NIC's DMA engine, while frames wait, gets a turn at
			// fixed instruction boundaries; an idle NIC costs nothing.
			if pollPending && core.Instret()-c.lastPoll[idx] >= DevicePollInterval {
				c.nic.Poll(core.Cycles())
				c.lastPoll[idx] = core.Instret()
				pollPending = c.nic.PollPending()
			}

			// A halted core stops emitting, but the resurrector keeps
			// consuming: drain the FIFO fully so trailing records (the
			// final instructions before a HALT) are still verified.
			if c.cfg.Monitoring && core.Halted() {
				for {
					head, ok := c.queues[idx].Pop()
					if !ok {
						break
					}
					c.verifyAt(idx, head)
				}
			}

			switch {
			case err != nil:
				// Faults on a resurrectee are detection events: the
				// watchdog, page protection or kernel flagged corruption.
				if !c.canRecover(p) {
					// The run ends without counting the faulting round.
					// A folded visit's earlier attempts were complete
					// rounds of their own; a Step's round includes the
					// other cores' attempts, dropped too.
					res.Instret += n - 1
					c.ranInstret += n - 1
					return res, fmt.Errorf("chip: unrecoverable fault (scheme=%v): %w", c.cfg.Scheme, err)
				}
				c.recoverSlot(idx, err)
			case c.pending[idx] != nil:
				c.recoverSlot(idx, c.pending[idx])
			case core.Halted() && p.CurrentReq != 0 && !p.Halted:
				// HALT mid-request: a DoS crash payload.
				if c.canRecover(p) {
					c.recoverSlot(idx, fmt.Errorf("halt during request"))
				}
			case core.Instret() >= c.budgetAt[idx] && c.rec.OverBudget(p, core):
				// Liveness check: the request hung (DoS).
				c.recoverSlot(idx, fmt.Errorf("instruction budget exceeded"))
			case st.switchReq && !core.Halted():
				// Between requests: the OS scheduler rotates processes.
				c.switchProcess(idx)
			}
		}
		res.Instret += executed
		c.ranInstret += executed
		if c.cfg.MetricsEvery > 0 && c.ranInstret >= c.obsNext {
			for c.ranInstret >= c.obsNext {
				c.obsNext += c.cfg.MetricsEvery
			}
			var cyc uint64
			for _, core := range c.cores {
				if cy := core.Cycles(); cy > cyc {
					cyc = cy
				}
			}
			c.obsSnapshot(cyc)
		}
		if allHalted {
			res.Halted = true
			break
		}
		if res.Instret >= maxInstr {
			c.finishAccounting(&res)
			return res, ErrInstrLimit
		}
	}
	c.finishAccounting(&res)
	return res, nil
}

// RunSegmented drives the chip in segments of at most every
// instructions until every service halts, Run fails with an error
// other than ErrInstrLimit, or ran reaches maxInstr (0 = no cap). ran
// counts the instructions executed before this call (a resumed run's
// progress) and is included in the result's Instret; Cycles,
// Violations and Halted come from the last segment, since they are
// absolute chip state. after runs once per segment with the running
// count, done set on the segment in which every service halted; an
// error from it ends the run.
func (c *Chip) RunSegmented(ran, maxInstr, every uint64, after func(ran uint64, done bool) error) (RunResult, error) {
	if maxInstr == 0 {
		maxInstr = 1 << 62
	}
	total := RunResult{Instret: ran}
	for ran < maxInstr {
		res, err := c.Run(min(every, maxInstr-ran))
		total.Instret += res.Instret
		total.Cycles, total.Violations, total.Halted = res.Cycles, res.Violations, res.Halted
		ran += res.Instret
		if err != nil && !errors.Is(err, ErrInstrLimit) {
			return total, err
		}
		if aerr := after(ran, err == nil); aerr != nil {
			return total, aerr
		}
		if err == nil {
			return total, nil
		}
	}
	return total, ErrInstrLimit
}

// visitBudget folds every post-step trigger of slot idx into one visit
// budget: the visit must end at (or before) the first instruction
// whose post-step check could fire. left is what remains of the Run's
// instruction cap.
func (c *Chip) visitBudget(idx int, left uint64, pollPending bool) uint64 {
	instret := c.cores[idx].Instret()
	budget := left
	// until bounds the visit by a check that fires once count reaches
	// at. A boundary already reached still allows one attempt, which
	// then takes its check, exactly as a one-instruction visit would.
	until := func(count, at uint64) {
		t := uint64(1)
		if count < at {
			t = at - count
		}
		if t < budget {
			budget = t
		}
	}
	if c.cfg.Monitoring {
		until(instret-c.lastDrain[idx], DrainInterval)
	}
	if stop := c.budgetAt[idx]; stop != noBudget {
		until(instret, stop)
	}
	if c.cfg.MetricsEvery > 0 {
		until(c.ranInstret, c.obsNext)
	}
	// A poll can only drain pending work (see Run), so a budget computed
	// while work is pending never overshoots a boundary a one-instruction
	// visit would poll at.
	if pollPending {
		until(instret-c.lastPoll[idx], DevicePollInterval)
	}
	return budget
}

// noBudget marks a slot with no request instruction budget armed.
const noBudget = ^uint64(0)

// refreshBudgetAt copies the recovery manager's budget stop for the
// process on slot idx, so the run loop's liveness check is one compare
// per visit. The inputs change only at request start and end (inside a
// syscall), on recovery or heartbeat escalation and on a process
// switch, which call it, and host-side between Runs, which Run covers
// on entry.
func (c *Chip) refreshBudgetAt(idx int) {
	c.budgetAt[idx] = noBudget
	if stop, ok := c.rec.BudgetStop(c.slots[idx].activeProc()); ok {
		c.budgetAt[idx] = stop
	}
}

func (c *Chip) finishAccounting(res *RunResult) {
	for _, core := range c.cores {
		if cy := core.Cycles(); cy > res.Cycles {
			res.Cycles = cy
		}
	}
	res.Violations = len(c.violationLog)
	c.obsSnapshot(res.Cycles)
}

// canRecover reports whether a detection can be handled: either the
// process has a backup scheme (INDRA recovery) or the platform falls
// back to conventional reboots.
func (c *Chip) canRecover(p *oslite.Process) bool {
	if c.cfg.RebootRecovery {
		return true
	}
	return p != nil && p.Ckpt != nil
}
