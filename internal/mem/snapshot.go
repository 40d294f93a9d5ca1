package mem

import "indra/internal/snapshot/wire"

// EncodeState writes the memory image: only pages that have ever been
// written (version != 0), with their exact version counters, in
// ascending page order. A page zeroed since its last write is recorded
// as 4096 zero bytes. The all-zero invariant (version 0 ⇒ page is
// zero) makes this lossless, and restoring the versions exactly keeps
// derived caches (instruction predecode) coherent across a restore.
func (p *Physical) EncodeState(w *wire.Writer) {
	w.U32(p.Size())
	n := 0
	for _, v := range p.vers {
		if v != 0 {
			n++
		}
	}
	w.Len(n)
	for i, v := range p.vers {
		if v == 0 {
			continue
		}
		w.U32(uint32(i))
		w.U32(v)
		w.Raw(p.frame(uint32(i))[:])
	}
}

// DecodeState restores the memory image in place: every page not in
// the snapshot stops existing (zero, version 0), every page in it gets
// the recorded bytes and version verbatim (no version bump — the
// restored state must be bit-exact, not "newer").
func (p *Physical) DecodeState(r *wire.Reader) {
	size := r.U32()
	if r.Err() != nil {
		return
	}
	if size != p.Size() {
		r.Failf("mem: snapshot memory size %d, have %d", size, p.Size())
		return
	}
	clear(p.pages)
	clear(p.vers)
	n := r.Len(4 + 4 + PageBytes)
	prev := -1
	for j := 0; j < n; j++ {
		pg := r.U32()
		v := r.U32()
		b := r.Raw(PageBytes)
		if r.Err() != nil {
			return
		}
		if int(pg) <= prev || pg >= uint32(len(p.vers)) {
			r.Failf("mem: page index %d out of order or range", pg)
			return
		}
		if v == 0 {
			r.Failf("mem: page %d recorded with version 0", pg)
			return
		}
		prev = int(pg)
		page := new([PageBytes]byte)
		copy(page[:], b)
		p.pages[pg] = page
		p.vers[pg] = v
	}
}

// EncodeState writes the allocator's mutable state (the region bounds
// are boot-time configuration).
func (f *FrameAllocator) EncodeState(w *wire.Writer) {
	w.U32(f.next)
	w.Len(len(f.free))
	for _, fr := range f.free {
		w.U32(fr)
	}
}

// DecodeState restores the allocator's watermark and free list,
// validating both against the configured region.
func (f *FrameAllocator) DecodeState(r *wire.Reader) {
	next := r.U32()
	if r.Err() != nil {
		return
	}
	if next < f.lo || next > f.hi || next%PageBytes != 0 {
		r.Failf("mem: allocator next %#x outside region [%#x, %#x]", next, f.lo, f.hi)
		return
	}
	f.next = next
	n := r.Len(4)
	f.free = f.free[:0]
	for i := 0; i < n; i++ {
		fr := r.U32()
		if r.Err() != nil {
			return
		}
		if fr < f.lo || fr >= next || fr%PageBytes != 0 {
			r.Failf("mem: freed frame %#x outside allocated region", fr)
			return
		}
		f.free = append(f.free, fr)
	}
}
