package chip

import (
	"fmt"

	"indra/internal/checkpoint"
	"indra/internal/faultinject"
)

// FIFOPolicy selects what the trace-FIFO write port does when the queue
// is full and the monitor has not caught up.
type FIFOPolicy int

const (
	// FIFOStall blocks the resurrectee until the monitor frees an entry
	// (the paper's third synchronisation rule; the default). Detection
	// never loses a record, at the price of availability under monitor
	// slowdown.
	FIFOStall FIFOPolicy = iota
	// FIFODrop discards the incoming record instead of stalling. The
	// service keeps its throughput, but the monitor is blind to the
	// dropped events — availability over security.
	FIFODrop
)

func (p FIFOPolicy) String() string {
	if p == FIFODrop {
		return "drop"
	}
	return "stall"
}

// DegradationMode selects the failure posture when a slot's protection
// machinery is lost (heartbeat miss limit, FIFO drop limit, or a
// monitor stall with nothing to recover to).
type DegradationMode int

const (
	// DegradeFailClosed halts the slot's services: no protection, no
	// service — security over availability (the default).
	DegradeFailClosed DegradationMode = iota
	// DegradeFailOpen turns the slot's monitoring off and keeps serving
	// requests unprotected — availability over security.
	DegradeFailOpen
)

func (m DegradationMode) String() string {
	if m == DegradeFailOpen {
		return "fail-open"
	}
	return "fail-closed"
}

// ProtectionStats aggregates the chip's self-protection activity.
type ProtectionStats struct {
	// DroppedRecords counts trace records discarded by the FIFODrop
	// overflow policy (not fault-injected losses).
	DroppedRecords uint64
	// InjectedDrops and InjectedCorrupts count fault-injected record
	// losses and bit flips at the FIFO write port.
	InjectedDrops    uint64
	InjectedCorrupts uint64
	// MonitorStallCycles sums injected monitor freezes.
	MonitorStallCycles uint64
	// HeartbeatMisses counts monitor-liveness expirations acted on;
	// MacroEscalations counts the subset resolved by a forced macro
	// restore, MicroFallbacks the subset resolved by micro recovery.
	HeartbeatMisses  uint64
	MacroEscalations uint64
	MicroFallbacks   uint64
	// Degradations counts slots that entered degraded mode.
	Degradations uint64
}

// ProtectionStats returns a snapshot of the self-protection counters.
func (c *Chip) ProtectionStats() ProtectionStats { return c.pstats }

// FaultStats returns the fault injector's site counters (zero when no
// plans are armed).
func (c *Chip) FaultStats() faultinject.Stats {
	if c.inj == nil {
		return faultinject.Stats{}
	}
	return c.inj.Stats()
}

// ProtectionLog returns the degradation/escalation event log.
func (c *Chip) ProtectionLog() []string {
	return append([]string(nil), c.protLog...)
}

// Degraded reports whether resurrectee slot idx has entered degraded
// mode (either posture).
func (c *Chip) Degraded(idx int) bool { return c.slots[idx].degraded }

func (c *Chip) protEvent(format string, args ...any) {
	c.protLog = append(c.protLog, fmt.Sprintf(format, args...))
}

// checkHeartbeat is the monitor-liveness check run from the Run loop's
// periodic catch-up point. The FIFO head's enqueue time is the proof of
// (non-)progress: a record sitting unverified past the heartbeat
// interval means the slot's resurrector has stalled. Reports whether a
// miss was recorded (the caller escalates).
func (c *Chip) checkHeartbeat(idx int, now uint64) bool {
	hb := c.hb[c.resOf(idx)]
	if hb == nil {
		return false
	}
	head, ok := c.queues[idx].Peek()
	if !ok {
		hb.Beat(now) // nothing pending: the monitor is trivially live
		return false
	}
	hb.Beat(head.EnqueuedAt) // the liveness deadline starts when work appeared
	if !hb.Expired(now) {
		return false
	}
	hb.Miss(now)
	c.pstats.HeartbeatMisses++
	c.om.heartbeatMisses.Inc()
	return true
}

// escalateStall handles a heartbeat miss on slot idx. The monitor may
// have silently missed detections during the stall window, so a
// one-request micro rollback cannot be trusted: prefer the macro
// checkpoint (Figure 8's deep fallback), fall back to micro recovery
// when none exists yet, and degrade when there is nothing to recover
// to. The stalled resurrector is resynchronised to the present and the
// unverified backlog — records from an execution about to be rolled
// back — is discarded.
func (c *Chip) escalateStall(idx int) {
	st := &c.slots[idx]
	p := st.activeProc()
	core := c.cores[idx]
	now := core.Cycles()

	c.queues[idx].DiscardAll()
	if r := c.resOf(idx); c.monClks[r] < now {
		c.monClks[r] = now
	}
	if port := st.activePort(); port != nil && p.CurrentReq != 0 {
		port.Abort(p.CurrentReq, now)
	}
	c.pending[idx] = nil
	defer c.refreshBudgetAt(idx)

	limit := c.cfg.HeartbeatMissLimit
	if limit > 0 && c.hb[c.resOf(idx)].Misses() > limit {
		c.degrade(idx, "heartbeat miss limit exceeded")
		return
	}
	if cycles, ok := c.rec.ForceMacro(p, core); ok {
		core.AddCycles(cycles)
		core.SetHalted(false)
		c.pstats.MacroEscalations++
		c.om.macroEscalations.Inc()
		c.tr.Instant("heartbeat-escalation", core.ID, now)
		c.protEvent("cycle %d slot %d: monitor heartbeat lost; macro restore (%d cycles)", now, idx, cycles)
		return
	}
	if c.rec.CanRecover(p) {
		core.AddCycles(c.rec.OnFailure(p, core))
		c.pstats.MicroFallbacks++
		c.om.microFallbacks.Inc()
		c.tr.Instant("heartbeat-micro-fallback", core.ID, now)
		c.protEvent("cycle %d slot %d: monitor heartbeat lost; no macro checkpoint, micro rollback", now, idx)
		return
	}
	c.degrade(idx, "monitor heartbeat lost with nothing to recover to")
}

// degrade moves slot idx into its configured degraded posture.
func (c *Chip) degrade(idx int, reason string) {
	st := &c.slots[idx]
	if st.degraded {
		return
	}
	st.degraded = true
	c.pstats.Degradations++
	c.om.degradations.Inc()
	core := c.cores[idx]
	c.tr.Instant("degraded:"+c.cfg.Degradation.String(), core.ID, core.Cycles())
	switch c.cfg.Degradation {
	case DegradeFailOpen:
		// Serve on, unmonitored: the FIFO tap is closed and the backlog
		// discarded, but requests keep flowing.
		st.unmonitored = true
		c.queues[idx].DiscardAll()
		c.pending[idx] = nil
		c.protEvent("cycle %d slot %d: degraded fail-open (%s); serving unmonitored", core.Cycles(), idx, reason)
	default:
		// Fail closed: the service is stopped where it stands.
		for _, p := range st.procs {
			p.Halted = true
		}
		core.SetHalted(true)
		c.protEvent("cycle %d slot %d: degraded fail-closed (%s); services halted", core.Cycles(), idx, reason)
	}
}

// noteFIFODrop accounts one policy-dropped record on slot idx and
// trips the degradation limit.
func (c *Chip) noteFIFODrop(idx int) {
	st := &c.slots[idx]
	st.drops++
	c.pstats.DroppedRecords++
	c.om.droppedRecords.Inc()
	if c.cfg.FIFODropLimit > 0 && st.drops > c.cfg.FIFODropLimit {
		c.degrade(idx, "FIFO drop limit exceeded")
	}
}

// tamperAdapter implements checkpoint.Tamperer over the chip's fault
// injector, closing over the owning slot for its clock. The bitvector
// target alternates between the dirty and rollback vectors so both
// failure modes (spurious and lost restores) are exercised.
type tamperAdapter struct {
	c   *Chip
	idx int
	n   uint64
}

func (a *tamperAdapter) now() uint64 { return a.c.cores[a.idx].Cycles() }

func (a *tamperAdapter) TamperBackup(line []byte) {
	a.c.inj.CorruptLine(a.now(), line)
}

func (a *tamperAdapter) TamperRestore(line []byte) {
	a.c.inj.CorruptDRAMRead(a.now(), line)
}

func (a *tamperAdapter) TamperBitvec(dirty, rollback []uint64, nbits int) {
	a.n++
	if a.n&1 == 0 {
		a.c.inj.FlipBitvec(a.now(), dirty, nbits)
	} else {
		a.c.inj.FlipBitvec(a.now(), rollback, nbits)
	}
}

// armTamperer installs the fault-injection hook on a freshly spawned
// process's delta engine (other schemes have no tamper surface).
func (c *Chip) armTamperer(slot int, ckpt checkpoint.Scheme) {
	if c.inj == nil {
		return
	}
	if !c.inj.Armed(faultinject.SiteCkptLine) &&
		!c.inj.Armed(faultinject.SiteCkptBitvec) &&
		!c.inj.Armed(faultinject.SiteDRAMRead) {
		return
	}
	if eng, ok := ckpt.(*checkpoint.Engine); ok {
		eng.SetTamperer(&tamperAdapter{c: c, idx: slot})
	}
}
