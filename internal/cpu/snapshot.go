package cpu

import (
	"indra/internal/oslite"
	"indra/internal/snapshot/wire"
	"indra/internal/tlb"
)

// EncodeState writes the core's architectural and microarchitectural
// state: registers, PC, process identity, halt flag, counters, and the
// CAM/branch-predictor contents. The cache/TLB stacks are serialized
// by their own packages (the chip owns the ordering); the predecode
// cache is derived state, coherent through the memory page versions,
// and is deliberately excluded.
func (c *Core) EncodeState(w *wire.Writer) {
	for _, r := range c.regs {
		w.U32(r)
	}
	w.U32(c.pc)
	w.Int(c.pid)
	w.Bool(c.halted)
	w.U64(c.stats.Instret)
	w.U64(c.stats.Cycles)
	w.U64(c.stats.Loads)
	w.U64(c.stats.Stores)
	w.U64(c.stats.Calls)
	w.U64(c.stats.Returns)
	w.U64(c.stats.ComputedJmps)
	w.U64(c.stats.Branches)
	w.U64(c.stats.Mispredicts)
	w.U64(c.stats.IL1Fills)
	w.U64(c.stats.OriginChecks)
	w.U64(c.stats.TraceStall)
	w.U64(c.stats.SyncStall)
	c.cam.EncodeState(w)
	c.bpred.EncodeState(w)
}

// DecodeState restores the core in place. The address space reference
// is not part of the payload; the chip re-installs it (by process
// identity) via InstallProcess before decoding.
func (c *Core) DecodeState(r *wire.Reader) {
	for i := range c.regs {
		c.regs[i] = r.U32()
	}
	c.pc = r.U32()
	c.pid = r.Int()
	c.halted = r.Bool()
	c.stats.Instret = r.U64()
	c.stats.Cycles = r.U64()
	c.stats.Loads = r.U64()
	c.stats.Stores = r.U64()
	c.stats.Calls = r.U64()
	c.stats.Returns = r.U64()
	c.stats.ComputedJmps = r.U64()
	c.stats.Branches = r.U64()
	c.stats.Mispredicts = r.U64()
	c.stats.IL1Fills = r.U64()
	c.stats.OriginChecks = r.U64()
	c.stats.TraceStall = r.U64()
	c.stats.SyncStall = r.U64()
	c.cam.DecodeState(r)
	c.bpred.DecodeState(r)
	// The predecode cache is excluded derived state: this core may have
	// executed a different history, whose pages could collide with the
	// restored memory's page versions.
	c.FlushDerived()
}

// InstallProcess sets the process identity and address space without
// flushing any microarchitectural state. It exists for snapshot
// restore, where TLB, CAM and predictor contents are reinstated
// exactly as captured; SetProcess remains the architectural (flushing)
// path.
func (c *Core) InstallProcess(pid int, as *oslite.AddressSpace) {
	c.pid = pid
	c.as = as
}

// ITLB exposes the instruction TLB for chip-level serialization.
func (c *Core) ITLB() *tlb.TLB { return c.itlb }

// DTLB exposes the data TLB for chip-level serialization.
func (c *Core) DTLB() *tlb.TLB { return c.dtlb }

// EncodeState writes the CAM contents and counters (entry count is
// configuration).
func (c *CAM) EncodeState(w *wire.Writer) {
	w.U64(c.clock)
	w.U64(c.hits)
	w.U64(c.misses)
	for _, e := range c.entries {
		w.U32(e.page)
		w.Bool(e.valid)
		w.U64(e.lru)
	}
}

// DecodeState restores the CAM in place.
func (c *CAM) DecodeState(r *wire.Reader) {
	c.clock = r.U64()
	c.hits = r.U64()
	c.misses = r.U64()
	for i := range c.entries {
		c.entries[i].page = r.U32()
		c.entries[i].valid = r.Bool()
		c.entries[i].lru = r.U64()
	}
}

// EncodeState writes the predictor table and counters (table size is
// configuration).
func (b *BPred) EncodeState(w *wire.Writer) {
	w.U64(b.hits)
	w.U64(b.mispredict)
	w.Raw(b.table)
}

// DecodeState restores the predictor in place, validating that every
// counter is a legal 2-bit value.
func (b *BPred) DecodeState(r *wire.Reader) {
	b.hits = r.U64()
	b.mispredict = r.U64()
	t := r.Raw(len(b.table))
	if r.Err() != nil {
		return
	}
	for i, ctr := range t {
		if ctr > 3 {
			r.Failf("cpu: branch counter %d out of range", ctr)
			return
		}
		b.table[i] = ctr
	}
}
