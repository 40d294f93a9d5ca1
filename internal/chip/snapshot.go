package chip

import (
	"fmt"

	"indra/internal/asm"
	"indra/internal/checkpoint"
	"indra/internal/checkpoint/baseline"
	"indra/internal/monitor"
	"indra/internal/netsim"
	"indra/internal/oslite"
	"indra/internal/snapshot/wire"
	"indra/internal/trace"
)

// Config returns the configuration the chip was built with (the
// snapshot envelope embeds it so Restore always runs against an
// identically-assembled chip).
func (c *Chip) Config() Config { return c.cfg }

// ActivePort returns the network port of the process currently owning
// resurrectee slot idx (nil when the slot is empty). Snapshot restore
// rebuilds ports inside the chip, so resumed runs reach their port
// through this accessor rather than the pre-snapshot pointer.
func (c *Chip) ActivePort(idx int) *netsim.Port { return c.slots[idx].activePort() }

// Restore replaces the chip's mutable state with a payload produced by
// EncodeState on an identically-configured chip. On error the chip may
// be partially overwritten and must be discarded.
func (c *Chip) Restore(data []byte) error {
	r := wire.NewReader(data)
	c.DecodeState(r)
	if err := r.Close(); err != nil {
		return fmt.Errorf("chip: restore: %w", err)
	}
	return nil
}

func encodeContext(w *wire.Writer, ctx oslite.Context) {
	for _, reg := range ctx.Regs {
		w.U32(reg)
	}
	w.U32(ctx.PC)
}

func decodeContext(r *wire.Reader) oslite.Context {
	var ctx oslite.Context
	for i := range ctx.Regs {
		ctx.Regs[i] = r.U32()
	}
	ctx.PC = r.U32()
	return ctx
}

// EncodeState writes the chip payload: the chip's full mutable state —
// memory, kernel, cores, caches, TLBs, FIFOs, monitor, recovery,
// checkpoint schemes, devices, protection and run-loop continuation
// state. The configuration is NOT included; pair the payload with the
// chip's Config (internal/snapshot's envelope does) and Restore into a
// freshly built chip of the same configuration.
//
// Deliberately excluded derived state: the predecode caches (coherent
// through mem page write-versions, which are restored exactly), the
// one-entry monitor/translate caches (reset on decode), the boot
// report (a pure function of the configuration) and all observability
// wiring (sinks are process-local, not chip state).
func (c *Chip) EncodeState(w *wire.Writer) {
	c.phys.EncodeState(w)
	c.kern.EncodeState(w)
	c.dram.EncodeState(w)
	c.wd.EncodeState(w)
	c.registry.EncodeState(w)
	c.mon.EncodeState(w)
	c.rec.EncodeState(w)

	for _, clk := range c.monClks {
		w.U64(clk)
	}
	for i, core := range c.cores {
		core.EncodeState(w)
		core.Hierarchy().EncodeState(w)
		core.ITLB().EncodeState(w)
		core.DTLB().EncodeState(w)
		c.queues[i].EncodeState(w)
	}

	for i := range c.slots {
		st := &c.slots[i]
		w.Len(len(st.procs))
		for j := range st.procs {
			w.Int(st.procs[j].PID)
			st.ports[j].EncodeState(w)
			encodeContext(w, st.ctxs[j])
			st.progs[j].EncodeState(w)
			w.String(st.names[j])
		}
		w.Int(st.active)
		w.Bool(st.switchReq)
		w.U64(st.drops)
		w.Bool(st.degraded)
		w.Bool(st.unmonitored)
		w.U64(st.reqStart)
	}

	// Per-process backup schemes, ascending PID. The scheme kind is
	// configuration; only presence and internals go on the wire.
	pids := c.kern.PIDs()
	w.Len(len(pids))
	for _, pid := range pids {
		p, _ := c.kern.Process(pid)
		w.Int(pid)
		if p.Ckpt == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		switch s := p.Ckpt.(type) {
		case *checkpoint.Engine:
			s.EncodeState(w)
			var n uint64
			if a, ok := s.Tamperer().(*tamperAdapter); ok {
				n = a.n
			}
			w.U64(n)
		case *baseline.HardwareVirtualCopy:
			s.EncodeState(w)
		case *baseline.SoftwarePageCopy:
			s.EncodeState(w)
		case *baseline.UpdateLog:
			s.EncodeState(w)
		default:
			panic(fmt.Sprintf("chip: unserializable scheme %T", p.Ckpt))
		}
	}

	for i := range c.pending {
		if v := c.pending[i]; v != nil {
			w.Bool(true)
			v.EncodeState(w)
		} else {
			w.Bool(false)
		}
	}
	w.Len(len(c.violationLog))
	for _, v := range c.violationLog {
		v.EncodeState(w)
	}
	w.Int(c.activeIdx)

	for _, hb := range c.hb {
		if hb != nil {
			w.Bool(true)
			hb.EncodeState(w)
		} else {
			w.Bool(false)
		}
	}
	if c.inj != nil {
		w.Bool(true)
		c.inj.EncodeState(w)
	} else {
		w.Bool(false)
	}

	w.U64(c.pstats.DroppedRecords)
	w.U64(c.pstats.InjectedDrops)
	w.U64(c.pstats.InjectedCorrupts)
	w.U64(c.pstats.MonitorStallCycles)
	w.U64(c.pstats.HeartbeatMisses)
	w.U64(c.pstats.MacroEscalations)
	w.U64(c.pstats.MicroFallbacks)
	w.U64(c.pstats.Degradations)
	w.Len(len(c.protLog))
	for _, s := range c.protLog {
		w.String(s)
	}

	w.U64(c.obsNext)
	w.U64(c.ranInstret)
	for _, v := range c.lastDrain {
		w.U64(v)
	}
	for _, v := range c.lastPoll {
		w.U64(v)
	}
}

// violationWireMin is the minimum encoded size of one Violation.
const violationWireMin = 1 + trace.RecordWireBytes + 4

// DecodeState restores the chip payload in place and rewires the
// cross-package aliasing the flat format cannot carry: slot processes
// to kernel processes (by PID), core address spaces to the active
// process, checkpoint schemes onto processes (rebuilt through the
// configured scheme kind), fault-injection tamperers and checkpoint
// probes.
func (c *Chip) DecodeState(r *wire.Reader) {
	c.phys.DecodeState(r)
	c.kern.DecodeState(r)
	c.dram.DecodeState(r)
	c.wd.DecodeState(r)
	c.registry.DecodeState(r)
	c.mon.DecodeState(r)
	c.rec.DecodeState(r)

	for i := range c.monClks {
		c.monClks[i] = r.U64()
	}
	for i, core := range c.cores {
		core.DecodeState(r)
		core.Hierarchy().DecodeState(r)
		core.ITLB().DecodeState(r)
		core.DTLB().DecodeState(r)
		c.queues[i].DecodeState(r)
	}

	for i := range c.slots {
		st := &c.slots[i]
		n := r.Len(8 + 4 + 17*4 + 4 + 4)
		st.procs = st.procs[:0]
		st.ports = st.ports[:0]
		st.ctxs = st.ctxs[:0]
		st.progs = st.progs[:0]
		st.names = st.names[:0]
		for j := 0; j < n; j++ {
			pid := r.Int()
			port := netsim.NewPort(nil)
			port.DecodeState(r)
			ctx := decodeContext(r)
			prog := asm.DecodeProgram(r)
			name := r.String()
			if r.Err() != nil {
				return
			}
			p, ok := c.kern.Process(pid)
			if !ok {
				r.Failf("chip: slot %d references unknown pid %d", i, pid)
				return
			}
			st.procs = append(st.procs, p)
			st.ports = append(st.ports, port)
			st.ctxs = append(st.ctxs, ctx)
			st.progs = append(st.progs, prog)
			st.names = append(st.names, name)
		}
		st.active = r.Int()
		st.switchReq = r.Bool()
		st.drops = r.U64()
		st.degraded = r.Bool()
		st.unmonitored = r.Bool()
		st.reqStart = r.U64()
		if r.Err() != nil {
			return
		}
		if (n == 0 && st.active != 0) || (n > 0 && (st.active < 0 || st.active >= n)) {
			r.Failf("chip: slot %d active index %d out of range", i, st.active)
			return
		}
	}

	pids := c.kern.PIDs()
	n := r.Len(8 + 1)
	if n != len(pids) {
		r.Failf("chip: %d scheme entries for %d processes", n, len(pids))
		return
	}
	tamperN := make(map[int]uint64)
	for _, pid := range pids {
		got := r.Int()
		if r.Err() != nil {
			return
		}
		if got != pid {
			r.Failf("chip: scheme entry for pid %d, want %d", got, pid)
			return
		}
		if !r.Bool() {
			continue
		}
		p, _ := c.kern.Process(pid)
		switch c.cfg.Scheme {
		case SchemeDelta:
			eng := c.newScheme(p.AS).(*checkpoint.Engine)
			eng.DecodeState(r)
			tamperN[pid] = r.U64()
			p.Ckpt = eng
		case SchemeSoftwarePageCopy:
			s := c.newScheme(p.AS).(*baseline.SoftwarePageCopy)
			s.DecodeState(r)
			p.Ckpt = s
		case SchemeHWVirtualCopy:
			s := c.newScheme(p.AS).(*baseline.HardwareVirtualCopy)
			s.DecodeState(r)
			p.Ckpt = s
		case SchemeUpdateLog:
			s := c.newScheme(p.AS).(*baseline.UpdateLog)
			s.DecodeState(r)
			p.Ckpt = s
		default:
			r.Failf("chip: snapshot carries scheme state but scheme is %v", c.cfg.Scheme)
			return
		}
		if r.Err() != nil {
			return
		}
	}

	for i := range c.pending {
		if r.Bool() {
			v := monitor.DecodeViolation(r)
			if r.Err() != nil {
				return
			}
			c.pending[i] = v
		} else {
			c.pending[i] = nil
		}
	}
	nv := r.Len(violationWireMin)
	c.violationLog = make([]*monitor.Violation, 0, nv)
	for i := 0; i < nv; i++ {
		v := monitor.DecodeViolation(r)
		if r.Err() != nil {
			return
		}
		c.violationLog = append(c.violationLog, v)
	}
	c.activeIdx = r.Int()
	if r.Err() != nil {
		return
	}
	if c.activeIdx < 0 || c.activeIdx >= len(c.slots) {
		r.Failf("chip: active slot %d out of range", c.activeIdx)
		return
	}

	for i := range c.hb {
		present := r.Bool()
		if r.Err() != nil {
			return
		}
		if present != (c.hb[i] != nil) {
			r.Failf("chip: heartbeat %d presence mismatch with configuration", i)
			return
		}
		if present {
			c.hb[i].DecodeState(r)
		}
	}
	injPresent := r.Bool()
	if r.Err() != nil {
		return
	}
	if injPresent != (c.inj != nil) {
		r.Failf("chip: fault injector presence mismatch with configuration")
		return
	}
	if injPresent {
		c.inj.DecodeState(r)
	}

	c.pstats.DroppedRecords = r.U64()
	c.pstats.InjectedDrops = r.U64()
	c.pstats.InjectedCorrupts = r.U64()
	c.pstats.MonitorStallCycles = r.U64()
	c.pstats.HeartbeatMisses = r.U64()
	c.pstats.MacroEscalations = r.U64()
	c.pstats.MicroFallbacks = r.U64()
	c.pstats.Degradations = r.U64()
	np := r.Len(4)
	c.protLog = c.protLog[:0]
	for i := 0; i < np; i++ {
		c.protLog = append(c.protLog, r.String())
	}

	c.obsNext = r.U64()
	c.ranInstret = r.U64()
	for i := range c.lastDrain {
		c.lastDrain[i] = r.U64()
	}
	for i := range c.lastPoll {
		c.lastPoll[i] = r.U64()
	}
	if r.Err() != nil {
		return
	}

	// Rewire what the flat payload cannot carry. InstallProcess (unlike
	// SetProcess) must not flush: the TLB/CAM/predictor contents were
	// just restored exactly.
	for idx := range c.slots {
		st := &c.slots[idx]
		if len(st.procs) > 0 {
			p := st.procs[st.active]
			c.cores[idx].InstallProcess(p.PID, p.AS)
		}
		for _, p := range st.procs {
			c.armTamperer(idx, p.Ckpt)
			if eng, ok := p.Ckpt.(*checkpoint.Engine); ok {
				if a, ok := eng.Tamperer().(*tamperAdapter); ok {
					a.n = tamperN[p.PID]
				}
			}
			c.instrumentCkpt(idx, p)
		}
	}
}
