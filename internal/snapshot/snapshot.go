// Package snapshot is the chip-state snapshot envelope: a versioned
// binary format that pairs a full chip.Config with the chip's mutable
// state payload, so a simulation can be frozen mid-run and revived —
// in this process, another process, or another machine — with
// bit-identical continuation.
//
// Layout:
//
//	magic   "INDRSNAP" (8 bytes)
//	version uint32 (strict gate: readers accept exactly Version)
//	config  chip.Config (every field except the Obs sink)
//	payload chip state (see chip.EncodeState; framing owned by the chip)
//
// The decoder is strict: unknown magic, version skew, truncation,
// trailing bytes and structurally impossible counts are all errors,
// never partial state. Load rebuilds the chip with chip.New (running
// the full boot sequence and configuration validation) and only then
// overlays the payload, so a loaded chip is indistinguishable from one
// that ran uninterrupted.
package snapshot

import (
	"bytes"
	"fmt"

	"indra/internal/cache"
	"indra/internal/chip"
	"indra/internal/dram"
	"indra/internal/faultinject"
	"indra/internal/monitor"
	"indra/internal/snapshot/wire"
)

// Version is the format version this build writes and the only one it
// reads. Bump on any wire-layout change; there is no cross-version
// migration — a snapshot is a resumable moment, not an archive format.
const Version = 3

var magic = []byte("INDRSNAP")

// Save serializes the chip and its configuration into a standalone
// snapshot blob.
func Save(c *chip.Chip) []byte {
	var w wire.Writer
	w.Raw(magic)
	w.U32(Version)
	encodeConfig(&w, c.Config())
	c.EncodeState(&w)
	return w.Bytes()
}

// Load parses a snapshot blob, rebuilds an identically-configured chip
// and restores the saved state into it.
func Load(data []byte) (*chip.Chip, error) {
	r := wire.NewReader(data)
	m := r.Raw(len(magic))
	if r.Err() == nil && !bytes.Equal(m, magic) {
		return nil, fmt.Errorf("snapshot: bad magic: not a snapshot file")
	}
	v := r.U32()
	if r.Err() == nil && v != Version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads only version %d", v, Version)
	}
	cfg := decodeConfig(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	payload := r.Raw(r.Remaining())
	c, err := chip.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("snapshot: rebuilding chip: %w", err)
	}
	if err := c.Restore(payload); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return c, nil
}

// ConfigBytes returns the canonical wire encoding of a chip
// configuration — a stable identity for same-platform checks, such as
// the fleet experiment's per-platform boot tally. It leaves out the Obs
// sink and ScalarDispatch, which never change a simulation's output.
func ConfigBytes(cfg chip.Config) []byte {
	var w wire.Writer
	encodeConfig(&w, cfg)
	return w.Bytes()
}

func encodeCacheConfig(w *wire.Writer, cc cache.Config) {
	w.String(cc.Name)
	w.U32(cc.SizeBytes)
	w.U32(cc.LineBytes)
	w.Int(cc.Assoc)
	w.Bool(cc.WriteBack)
}

func decodeCacheConfig(r *wire.Reader) cache.Config {
	var cc cache.Config
	cc.Name = r.String()
	cc.SizeBytes = r.U32()
	cc.LineBytes = r.U32()
	cc.Assoc = r.Int()
	cc.WriteBack = r.Bool()
	return cc
}

func encodeDRAMConfig(w *wire.Writer, dc dram.Config) {
	w.Int(dc.Banks)
	w.U32(dc.RowBytes)
	w.U32(dc.BusBytes)
	w.U64(dc.CASLatency)
	w.U64(dc.RPLatency)
	w.U64(dc.RCDLatency)
	w.U64(dc.CoreClocksPerBus)
}

func decodeDRAMConfig(r *wire.Reader) dram.Config {
	var dc dram.Config
	dc.Banks = r.Int()
	dc.RowBytes = r.U32()
	dc.BusBytes = r.U32()
	dc.CASLatency = r.U64()
	dc.RPLatency = r.U64()
	dc.RCDLatency = r.U64()
	dc.CoreClocksPerBus = r.U64()
	return dc
}

// encodeConfig writes every chip.Config field except the Obs sink
// (process-local wiring, never chip state).
func encodeConfig(w *wire.Writer, cfg chip.Config) {
	w.Int(cfg.Resurrectees)
	w.Int(cfg.Resurrectors)
	w.U32(cfg.PhysMemBytes)
	w.U32(cfg.ResurrectorMemBytes)
	w.Int(cfg.FIFOEntries)
	w.Int(cfg.CAMSize)
	w.Int(cfg.BPredEntries)
	w.Bool(cfg.Monitoring)
	w.U64(cfg.MonitorCosts.Call)
	w.U64(cfg.MonitorCosts.Return)
	w.U64(cfg.MonitorCosts.Origin)
	w.U64(cfg.MonitorCosts.Control)
	w.U64(cfg.MonitorCosts.Setjmp)
	if cfg.MonitorPolicy != nil {
		w.Bool(true)
		w.Bool(cfg.MonitorPolicy.CallReturn)
		w.Bool(cfg.MonitorPolicy.CodeOrigin)
		w.Bool(cfg.MonitorPolicy.ControlTransfer)
	} else {
		w.Bool(false)
	}
	encodeCacheConfig(w, cfg.Hierarchy.L1I)
	encodeCacheConfig(w, cfg.Hierarchy.L1D)
	encodeCacheConfig(w, cfg.Hierarchy.L2)
	w.U64(cfg.Hierarchy.L1Latency)
	w.U64(cfg.Hierarchy.L2Latency)
	encodeDRAMConfig(w, cfg.Hierarchy.DRAMConfig)
	w.U32(cfg.Checkpoint.PageBytes)
	w.U32(cfg.Checkpoint.LineBytes)
	w.Int(int(cfg.Scheme))
	w.Int(cfg.Recovery.MacroPeriod)
	w.Int(cfg.Recovery.ConsecutiveFailLimit)
	w.U64(cfg.Recovery.InstrBudget)
	w.U64(cfg.Recovery.HandlerCycles)
	w.Bool(cfg.Recovery.EagerRollback)
	w.U64(cfg.Recovery.RetryBackoffCycles)
	w.U64(cfg.Recovery.RetryBackoffCap)
	w.Bool(cfg.RebootRecovery)
	w.Len(len(cfg.Faults))
	for _, p := range cfg.Faults {
		w.U8(uint8(p.Site))
		w.F64(p.Rate)
		w.U64(p.From)
		w.U64(p.To)
		w.U64(p.Seed)
		w.U64(p.StallCycles)
	}
	w.Int(int(cfg.FIFOPolicy))
	w.U64(cfg.FIFODropLimit)
	w.U64(cfg.HeartbeatInterval)
	w.U64(cfg.HeartbeatMissLimit)
	w.Int(int(cfg.Degradation))
	w.U64(cfg.MetricsEvery)
}

func decodeConfig(r *wire.Reader) chip.Config {
	var cfg chip.Config
	cfg.Resurrectees = r.Int()
	cfg.Resurrectors = r.Int()
	cfg.PhysMemBytes = r.U32()
	cfg.ResurrectorMemBytes = r.U32()
	cfg.FIFOEntries = r.Int()
	cfg.CAMSize = r.Int()
	cfg.BPredEntries = r.Int()
	cfg.Monitoring = r.Bool()
	cfg.MonitorCosts.Call = r.U64()
	cfg.MonitorCosts.Return = r.U64()
	cfg.MonitorCosts.Origin = r.U64()
	cfg.MonitorCosts.Control = r.U64()
	cfg.MonitorCosts.Setjmp = r.U64()
	if r.Bool() {
		p := &monitor.Policy{}
		p.CallReturn = r.Bool()
		p.CodeOrigin = r.Bool()
		p.ControlTransfer = r.Bool()
		cfg.MonitorPolicy = p
	}
	cfg.Hierarchy.L1I = decodeCacheConfig(r)
	cfg.Hierarchy.L1D = decodeCacheConfig(r)
	cfg.Hierarchy.L2 = decodeCacheConfig(r)
	cfg.Hierarchy.L1Latency = r.U64()
	cfg.Hierarchy.L2Latency = r.U64()
	cfg.Hierarchy.DRAMConfig = decodeDRAMConfig(r)
	cfg.Checkpoint.PageBytes = r.U32()
	cfg.Checkpoint.LineBytes = r.U32()
	cfg.Scheme = chip.SchemeKind(r.Int())
	cfg.Recovery.MacroPeriod = r.Int()
	cfg.Recovery.ConsecutiveFailLimit = r.Int()
	cfg.Recovery.InstrBudget = r.U64()
	cfg.Recovery.HandlerCycles = r.U64()
	cfg.Recovery.EagerRollback = r.Bool()
	cfg.Recovery.RetryBackoffCycles = r.U64()
	cfg.Recovery.RetryBackoffCap = r.U64()
	cfg.RebootRecovery = r.Bool()
	n := r.Len(1 + 8*5)
	for i := 0; i < n; i++ {
		var p faultinject.Plan
		p.Site = faultinject.Site(r.U8())
		p.Rate = r.F64()
		p.From = r.U64()
		p.To = r.U64()
		p.Seed = r.U64()
		p.StallCycles = r.U64()
		if r.Err() != nil {
			return cfg
		}
		if err := p.Validate(); err != nil {
			r.Failf("invalid fault plan %d: %v", i, err)
			return cfg
		}
		cfg.Faults = append(cfg.Faults, p)
	}
	cfg.FIFOPolicy = chip.FIFOPolicy(r.Int())
	cfg.FIFODropLimit = r.U64()
	cfg.HeartbeatInterval = r.U64()
	cfg.HeartbeatMissLimit = r.U64()
	cfg.Degradation = chip.DegradationMode(r.Int())
	cfg.MetricsEvery = r.U64()

	// Structural ceilings. Every config in a genuine snapshot passed
	// chip.New once, so real values sit orders of magnitude below these
	// bounds; a config beyond them (or negative) is corrupt and would
	// otherwise drive chip.New into unbounded allocation — or, for
	// PhysMemBytes, into mem.NewPhysical's alignment panic.
	limit := func(name string, v, max int) {
		if v < 0 || v > max {
			r.Failf("config %s = %d outside [0,%d]", name, v, max)
		}
	}
	limit("Resurrectees", cfg.Resurrectees, 64)
	limit("Resurrectors", cfg.Resurrectors, 64)
	limit("FIFOEntries", cfg.FIFOEntries, 1<<16)
	limit("CAMSize", cfg.CAMSize, 1<<16)
	limit("BPredEntries", cfg.BPredEntries, 1<<20)
	limit("Recovery.MacroPeriod", cfg.Recovery.MacroPeriod, 1<<20)
	limit("Recovery.ConsecutiveFailLimit", cfg.Recovery.ConsecutiveFailLimit, 1<<20)
	limit("DRAM.Banks", cfg.Hierarchy.DRAMConfig.Banks, 1<<12)
	if cfg.PhysMemBytes == 0 || cfg.PhysMemBytes%4096 != 0 || cfg.PhysMemBytes > 1<<30 {
		r.Failf("config PhysMemBytes = %d: not a positive multiple of 4096 at or below 1 GiB", cfg.PhysMemBytes)
	}
	if cfg.ResurrectorMemBytes%4096 != 0 || cfg.ResurrectorMemBytes >= cfg.PhysMemBytes {
		r.Failf("config ResurrectorMemBytes = %d: not a page-aligned region below PhysMemBytes %d",
			cfg.ResurrectorMemBytes, cfg.PhysMemBytes)
	}
	for _, cc := range []cache.Config{cfg.Hierarchy.L1I, cfg.Hierarchy.L1D, cfg.Hierarchy.L2} {
		if cc.SizeBytes > 1<<26 {
			r.Failf("config cache %q SizeBytes = %d exceeds 64 MiB", cc.Name, cc.SizeBytes)
		}
		if cc.LineBytes > 1<<14 {
			r.Failf("config cache %q LineBytes = %d exceeds 16 KiB", cc.Name, cc.LineBytes)
		}
		limit("cache Assoc", cc.Assoc, 1<<10)
	}
	var lines int
	for _, cc := range []cache.Config{cfg.Hierarchy.L1I, cfg.Hierarchy.L1D, cfg.Hierarchy.L2} {
		if cc.LineBytes > 0 {
			lines += int(cc.SizeBytes / cc.LineBytes)
		}
	}
	if cfg.Resurrectees > 0 && lines*cfg.Resurrectees > 1<<20 {
		r.Failf("config cache geometry: %d lines x %d cores exceeds the structural ceiling", lines, cfg.Resurrectees)
	}
	if cfg.Checkpoint.PageBytes > 1<<16 || cfg.Checkpoint.LineBytes > 1<<16 {
		r.Failf("config checkpoint geometry %d/%d exceeds 64 KiB",
			cfg.Checkpoint.PageBytes, cfg.Checkpoint.LineBytes)
	}

	// Gate the enum-valued knobs here: chip.New switches on them with
	// silent defaults, but a snapshot claiming an unknown value is
	// corrupt, not a configuration choice.
	if cfg.Scheme < chip.SchemeNone || cfg.Scheme > chip.SchemeUpdateLog {
		r.Failf("unknown scheme %d", int(cfg.Scheme))
	}
	if cfg.FIFOPolicy < chip.FIFOStall || cfg.FIFOPolicy > chip.FIFODrop {
		r.Failf("unknown FIFO policy %d", int(cfg.FIFOPolicy))
	}
	if cfg.Degradation < chip.DegradeFailClosed || cfg.Degradation > chip.DegradeFailOpen {
		r.Failf("unknown degradation mode %d", int(cfg.Degradation))
	}
	return cfg
}
