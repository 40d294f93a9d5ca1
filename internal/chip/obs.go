package chip

import (
	"fmt"

	"indra/internal/checkpoint"
	"indra/internal/obs"
	"indra/internal/oslite"
)

// chipMetrics holds the chip's event-time metric handles. Handles from
// a nil registry are nil and every operation on them is a no-op, so
// the hot paths below carry exactly one nil check when observation is
// off (the zero-cost contract of internal/obs).
type chipMetrics struct {
	rollbackCycles   *obs.Histogram // micro-rollback latency per recovery
	violationLatency *obs.Histogram // emit-to-verdict cycles per detection

	fifoOcc  []*obs.Gauge // per-slot FIFO occupancy at snapshot time
	ipcMilli []*obs.Gauge // per-slot IPC x1000 at snapshot time
}

func newChipMetrics(reg *obs.Registry, slots int) chipMetrics {
	m := chipMetrics{
		rollbackCycles:   reg.Histogram("ckpt.rollback_cycles"),
		violationLatency: reg.Histogram("monitor.violation_latency"),
		fifoOcc:          make([]*obs.Gauge, slots),
		ipcMilli:         make([]*obs.Gauge, slots),
	}
	for i := range m.fifoOcc {
		m.fifoOcc[i] = reg.Gauge(fmt.Sprintf("slot%d.fifo.occupancy_now", i))
		m.ipcMilli[i] = reg.Gauge(fmt.Sprintf("slot%d.ipc_milli", i))
	}
	return m
}

// instrument wires the sink through the assembled chip: probes over
// ProtectionStats (read at every snapshot, so -metrics-every mid-run
// snapshots see them too), per-slot cache, FIFO and core probes, the
// shared DRAM model, the monitor, and the tracer's track names. Called
// once from New; with the Nop sink the registry is nil and everything
// short-circuits to no-ops.
func (c *Chip) instrument() {
	reg := c.reg
	c.om = newChipMetrics(reg, len(c.cores))
	if reg == nil && c.tr == nil {
		return
	}
	ps := &c.pstats
	reg.Probe("chip.dropped_records", func() uint64 { return ps.DroppedRecords })
	reg.Probe("chip.injected_drops", func() uint64 { return ps.InjectedDrops })
	reg.Probe("chip.injected_corrupts", func() uint64 { return ps.InjectedCorrupts })
	reg.Probe("chip.monitor_stall_cycles", func() uint64 { return ps.MonitorStallCycles })
	reg.Probe("chip.heartbeat_misses", func() uint64 { return ps.HeartbeatMisses })
	reg.Probe("chip.macro_escalations", func() uint64 { return ps.MacroEscalations })
	reg.Probe("chip.micro_fallbacks", func() uint64 { return ps.MicroFallbacks })
	reg.Probe("chip.degradations", func() uint64 { return ps.Degradations })
	c.dram.Instrument(reg, "dram")
	c.mon.Instrument(reg, "monitor")
	for i := range c.cores {
		core := c.cores[i]
		prefix := fmt.Sprintf("slot%d", i)
		core.Hierarchy().Instrument(reg, prefix)
		c.queues[i].Instrument(reg, prefix+".fifo")
		reg.Probe(prefix+".cpu.instret", func() uint64 { return core.Stats().Instret })
		reg.Probe(prefix+".cpu.cycles", func() uint64 { return core.Stats().Cycles })
		reg.Probe(prefix+".cpu.il1_fills", func() uint64 { return core.Stats().IL1Fills })
		reg.Probe(prefix+".cpu.origin_checks", func() uint64 { return core.Stats().OriginChecks })
		reg.Probe(prefix+".fifo.stall_cycles", func() uint64 { return core.Stats().TraceStall })
		reg.Probe(prefix+".cpu.sync_stall_cycles", func() uint64 { return core.Stats().SyncStall })
	}
	if c.tr != nil {
		for r := 0; r < c.cfg.Resurrectors; r++ {
			c.tr.ThreadName(r, fmt.Sprintf("resurrector-%d", r))
		}
		for i := range c.cores {
			c.tr.ThreadName(c.cores[i].ID, fmt.Sprintf("resurrectee-%d", i))
		}
	}
}

// instrumentCkpt follows a slot's live delta engine: probes are keyed
// by slot and PID and re-registered after a reboot-recovery respawn
// (same-name registration replaces the closure, so the probes always
// read the engine currently protecting the process).
func (c *Chip) instrumentCkpt(slot int, p *oslite.Process) {
	if c.reg == nil {
		return
	}
	if eng, ok := p.Ckpt.(*checkpoint.Engine); ok {
		eng.Instrument(c.reg, fmt.Sprintf("slot%d.pid%d.ckpt", slot, p.PID))
	}
}

// obsSnapshot refreshes the sampled gauges and records a registry
// snapshot at the given cycle. Called from the Run loop every
// MetricsEvery instructions and once from finishAccounting.
func (c *Chip) obsSnapshot(cycle uint64) {
	for i, core := range c.cores {
		st := core.Stats()
		if st.Cycles > 0 {
			c.om.ipcMilli[i].Set(st.Instret * 1000 / st.Cycles)
		}
		c.om.fifoOcc[i].Set(uint64(c.queues[i].Len()))
	}
	c.sink.Snapshot(cycle)
}

// Sink returns the chip's observation sink (the Nop sink when none was
// configured).
func (c *Chip) Sink() obs.Sink { return c.sink }
