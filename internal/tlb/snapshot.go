package tlb

import "indra/internal/snapshot/wire"

// EncodeState writes the translation entries (set-major), LRU clock
// and counters. Geometry is configuration; both sides derive it from
// the same chip config, so entries are encoded without counts.
func (t *TLB) EncodeState(w *wire.Writer) {
	w.U64(t.clock)
	for _, set := range t.sets {
		for _, e := range set {
			w.U32(e.vpn)
			w.Bool(e.valid)
			w.U64(e.lru)
		}
	}
	w.U64(t.stats.Accesses)
	w.U64(t.stats.Misses)
	w.U64(t.stats.Cycles)
}

// DecodeState restores entries, clock and counters in place, and
// drops the repeat-access memo (it points at an entry of the replaced
// contents).
func (t *TLB) DecodeState(r *wire.Reader) {
	t.last = nil
	t.clock = r.U64()
	for s := range t.sets {
		for i := range t.sets[s] {
			t.sets[s][i].vpn = r.U32()
			t.sets[s][i].valid = r.Bool()
			t.sets[s][i].lru = r.U64()
		}
	}
	t.stats.Accesses = r.U64()
	t.stats.Misses = r.U64()
	t.stats.Cycles = r.U64()
}
