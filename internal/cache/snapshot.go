package cache

import "indra/internal/snapshot/wire"

// EncodeState writes the tag array, LRU clock and counters. Geometry
// is configuration shared by both sides, so lines carry no count.
func (c *Cache) EncodeState(w *wire.Writer) {
	w.U64(c.clock)
	for _, l := range c.lines {
		w.U32(l.tag)
		w.Bool(l.valid)
		w.Bool(l.dirty)
		w.U64(l.lru)
	}
	w.U64(c.stats.Accesses)
	w.U64(c.stats.Misses)
	w.U64(c.stats.Writebacks)
	w.U64(c.stats.Fills)
	w.U64(c.stats.Evictions)
}

// DecodeState restores the tag array and counters in place, and drops
// the repeat-access memo (it names a line of the replaced contents).
func (c *Cache) DecodeState(r *wire.Reader) {
	c.lastOK = false
	c.clock = r.U64()
	for i := range c.lines {
		c.lines[i].tag = r.U32()
		c.lines[i].valid = r.Bool()
		c.lines[i].dirty = r.Bool()
		c.lines[i].lru = r.U64()
	}
	c.stats.Accesses = r.U64()
	c.stats.Misses = r.U64()
	c.stats.Writebacks = r.U64()
	c.stats.Fills = r.U64()
	c.stats.Evictions = r.U64()
}

// EncodeState writes the three cache levels. The shared DRAM model is
// chip-owned and serialized once at chip level, not per hierarchy.
func (h *Hierarchy) EncodeState(w *wire.Writer) {
	h.l1i.EncodeState(w)
	h.l1d.EncodeState(w)
	h.l2.EncodeState(w)
}

// DecodeState restores the three cache levels in place.
func (h *Hierarchy) DecodeState(r *wire.Reader) {
	h.l1i.DecodeState(r)
	h.l1d.DecodeState(r)
	h.l2.DecodeState(r)
}
