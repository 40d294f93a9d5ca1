package device

import (
	"sort"

	"indra/internal/snapshot/wire"
)

// EncodeState writes the sector store (ascending sector order) and
// counters. The memory, watchdog and cost wiring are boot-time
// references owned by the chip.
func (d *Disk) EncodeState(w *wire.Writer) {
	keys := make([]uint32, 0, len(d.sectors))
	for s := range d.sectors {
		keys = append(keys, s)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Len(len(keys))
	for _, s := range keys {
		w.U32(s)
		w.Raw(d.sectors[s])
	}
	w.U64(d.stats.Reads)
	w.U64(d.stats.Writes)
	w.U64(d.stats.Sectors)
	w.U64(d.stats.Rejected)
	w.U64(d.stats.Cycles)
}

// EncodeState writes the NIC's volatile state: register file, DMA
// cursor, the wire-side frame queue (so a restore mid-receive resumes
// the exact delivery schedule) and counters.
func (n *NIC) EncodeState(w *wire.Writer) {
	w.Bool(n.enabled)
	w.U32(n.ringBase)
	w.U32(n.ringLen)
	w.U32(n.head)
	w.U32(n.dmaCore)
	w.Len(len(n.pending))
	for _, f := range n.pending {
		w.Blob(f)
	}
	w.U64(n.stats.Frames)
	w.U64(n.stats.Bytes)
	w.U64(n.stats.Dropped)
	w.U64(n.stats.Rejected)
	w.U64(n.stats.Stalls)
}

// DecodeState restores the NIC in place.
func (n *NIC) DecodeState(r *wire.Reader) {
	n.enabled = r.Bool()
	n.ringBase = r.U32()
	n.ringLen = r.U32()
	n.head = r.U32()
	n.dmaCore = r.U32()
	if r.Err() != nil {
		return
	}
	if n.ringLen > NICRingEntries {
		r.Failf("nic: ring length %d exceeds %d", n.ringLen, NICRingEntries)
		return
	}
	if n.ringLen != 0 && n.head >= n.ringLen {
		r.Failf("nic: head %d outside ring of %d", n.head, n.ringLen)
		return
	}
	cnt := r.Len(4)
	if r.Err() != nil {
		return
	}
	if cnt > nicMaxPending {
		r.Failf("nic: %d pending frames exceeds %d", cnt, nicMaxPending)
		return
	}
	n.pending = nil
	for i := 0; i < cnt; i++ {
		n.pending = append(n.pending, r.Blob())
	}
	n.stats.Frames = r.U64()
	n.stats.Bytes = r.U64()
	n.stats.Dropped = r.U64()
	n.stats.Rejected = r.U64()
	n.stats.Stalls = r.U64()
}

// DecodeState rebuilds the sector store in place; sector keys must be
// strictly ascending (canonical form). All sectors are carved from one
// allocation.
func (d *Disk) DecodeState(r *wire.Reader) {
	n := r.Len(4 + SectorBytes)
	d.sectors = make(map[uint32][]byte, n)
	store := make([]byte, n*SectorBytes)
	prev := int64(-1)
	for i := 0; i < n; i++ {
		s := r.U32()
		b := r.Raw(SectorBytes)
		if r.Err() != nil {
			return
		}
		if int64(s) <= prev {
			r.Failf("device: sector keys out of order at %d", s)
			return
		}
		prev = int64(s)
		buf := store[i*SectorBytes : (i+1)*SectorBytes : (i+1)*SectorBytes]
		copy(buf, b)
		d.sectors[s] = buf
	}
	d.stats.Reads = r.U64()
	d.stats.Writes = r.U64()
	d.stats.Sectors = r.U64()
	d.stats.Rejected = r.U64()
	d.stats.Cycles = r.U64()
}
