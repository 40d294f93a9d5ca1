package cache

import (
	"fmt"

	"indra/internal/dram"
)

// HierarchyConfig assembles a per-core memory hierarchy.
type HierarchyConfig struct {
	L1I        Config
	L1D        Config
	L2         Config
	L1Latency  uint64 // core clocks for an L1 hit
	L2Latency  uint64 // additional core clocks for an L2 hit
	DRAMConfig dram.Config
}

// DefaultHierarchyConfig reproduces Table 4: 16 KB direct-mapped split
// L1 caches with 32 B lines, a 512 KB 4-way unified write-back L2 with
// 64 B lines, 1-cycle L1 and 8-cycle L2 latency, and the PC SDRAM model.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:        Config{Name: "L1I", SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1},
		L1D:        Config{Name: "L1D", SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1, WriteBack: true},
		L2:         Config{Name: "L2", SizeBytes: 512 << 10, LineBytes: 64, Assoc: 4, WriteBack: true},
		L1Latency:  1,
		L2Latency:  8,
		DRAMConfig: dram.DefaultConfig(),
	}
}

// Validate reports configuration errors across the hierarchy.
func (hc HierarchyConfig) Validate() error {
	for _, c := range []Config{hc.L1I, hc.L1D, hc.L2} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if hc.L1I.LineBytes > hc.L2.LineBytes || hc.L1D.LineBytes > hc.L2.LineBytes {
		return fmt.Errorf("cache: L1 line larger than L2 line")
	}
	return hc.DRAMConfig.Validate()
}

// AccessEvent describes what happened during one hierarchy access; the
// core uses it to raise code-origin checks (IL1 fills) and to interleave
// checkpoint work with the natural stall slack.
type AccessEvent struct {
	Cycles   uint64
	L1Miss   bool
	L2Miss   bool
	FillLine uint32 // L1 line base address filled on an L1 miss
}

// Hierarchy is the per-core cache stack over a shared DRAM model. The
// L2 in the paper is 512 KB *per core*, so the whole stack is
// core-private; only the DRAM model may be shared between cores.
type Hierarchy struct {
	cfg HierarchyConfig
	l1i *Cache
	l1d *Cache
	l2  *Cache
	mem *dram.Model
}

// NewHierarchy builds the cache stack over the given DRAM model. A nil
// mem constructs a private DRAM model from cfg.DRAMConfig.
func NewHierarchy(cfg HierarchyConfig, mem *dram.Model) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if mem == nil {
		mem = dram.New(cfg.DRAMConfig)
	}
	return &Hierarchy{
		cfg: cfg,
		l1i: New(cfg.L1I),
		l1d: New(cfg.L1D),
		l2:  New(cfg.L2),
		mem: mem,
	}
}

// L1I exposes the instruction cache (the monitor's CAM filter and the
// experiment harness need its miss statistics).
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// L1D exposes the data cache.
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L2 exposes the unified second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// DRAM exposes the memory model.
func (h *Hierarchy) DRAM() *dram.Model { return h.mem }

// Fetch models an instruction fetch at addr and returns the resulting
// latency and events. An L1Miss event is the code-origin inspection
// point: hardware guarantees IL1 contents are immutable, so the L2→IL1
// interface is where injected code must be caught (Section 2.3.2).
//
// Fetch, Load and Store finish a repeat access to the L1 line touched
// last (an L1 hit by construction) before entering the full path.
func (h *Hierarchy) Fetch(addr uint32) AccessEvent {
	if h.l1i.repeat(addr, false) {
		return AccessEvent{Cycles: h.cfg.L1Latency}
	}
	return h.access(h.l1i, addr, false)
}

// Load models a data read at addr.
func (h *Hierarchy) Load(addr uint32) AccessEvent {
	if h.l1d.repeat(addr, false) {
		return AccessEvent{Cycles: h.cfg.L1Latency}
	}
	return h.access(h.l1d, addr, false)
}

// Store models a data write at addr (write-back, write-allocate).
func (h *Hierarchy) Store(addr uint32) AccessEvent {
	if h.l1d.repeat(addr, true) {
		return AccessEvent{Cycles: h.cfg.L1Latency}
	}
	return h.access(h.l1d, addr, true)
}

func (h *Hierarchy) access(l1 *Cache, addr uint32, write bool) AccessEvent {
	ev := AccessEvent{Cycles: h.cfg.L1Latency}
	r1 := l1.Access(addr, write)
	if r1.Hit {
		return ev
	}
	ev.L1Miss = true
	ev.FillLine = l1.LineAddr(addr)
	ev.Cycles += h.cfg.L2Latency

	// A dirty L1 victim is absorbed by the L2 (write-back).
	if r1.Writeback {
		h.l2.Access(r1.VictimAddr, true)
	}
	r2 := h.l2.Access(addr, false)
	if !r2.Hit {
		ev.L2Miss = true
		ev.Cycles += h.mem.Access(addr, h.cfg.L2.LineBytes)
		if r2.Writeback {
			// Dirty L2 victim goes to DRAM; cost the write bus time too.
			ev.Cycles += h.mem.Access(r2.VictimAddr, h.cfg.L2.LineBytes)
		}
	}
	return ev
}

// MemCycles returns the cost, in core clocks, of a raw memory-to-memory
// line transfer of n bytes bypassing the caches. The checkpoint engines
// use it to cost backup-page copies consistently with the DRAM model.
func (h *Hierarchy) MemCycles(addr uint32, n uint32) uint64 {
	return h.mem.Access(addr, n)
}

// InvalidateAll drops all cache contents (recovery pipeline flush).
func (h *Hierarchy) InvalidateAll() {
	h.l1i.InvalidateAll()
	h.l1d.InvalidateAll()
	h.l2.InvalidateAll()
}
