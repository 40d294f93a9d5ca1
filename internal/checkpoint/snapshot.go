package checkpoint

import "indra/internal/snapshot/wire"

// Tamperer exposes the installed fault-injection hook so the chip can
// carry its alternation state across snapshot restore.
func (e *Engine) Tamperer() Tamperer { return e.tamper }

// wordsPerVec is the BitVec backing length for this configuration.
func (e *Engine) wordsPerVec() int { return (e.cfg.LinesPerPage() + 63) / 64 }

func encodeVec(w *wire.Writer, v BitVec) {
	for _, word := range v {
		w.U64(word)
	}
}

func decodeVec(r *wire.Reader, v BitVec) {
	for i := range v {
		v[i] = r.U64()
	}
}

// EncodeState writes the engine's full backup state: GTS, counters and
// every page record (ascending VA), touch stamp included. The memory
// view, cost function and tamperer are chip-owned wiring.
func (e *Engine) EncodeState(w *wire.Writer) {
	w.U64(e.gts)
	w.U64(e.stats.GTSIncrements)
	w.U64(e.stats.StoresChecked)
	w.U64(e.stats.LoadsChecked)
	w.U64(e.stats.LineBackups)
	w.U64(e.stats.LineRestores)
	w.U64(e.stats.PagesTracked)
	w.U64(e.stats.Failures)
	w.U64(e.stats.BackupCycles)
	w.U64(e.stats.RestoreCycles)
	w.U64(e.stats.RollbackCycles)
	w.U64(e.stats.DirtyPageTouches)

	pages := e.sortedPages()
	w.Len(len(pages))
	for _, page := range pages {
		rec := e.pages[page]
		w.U32(page)
		w.U64(rec.lts)
		encodeVec(w, rec.dirty)
		encodeVec(w, rec.rollback)
		w.Bool(rec.rollbackVld)
		w.Blob(rec.backup)
		w.U64(rec.everAllocGTS)
		w.U64(rec.touched)
	}
}

// DecodeState restores the engine in place.
func (e *Engine) DecodeState(r *wire.Reader) {
	e.gts = r.U64()
	e.stats.GTSIncrements = r.U64()
	e.stats.StoresChecked = r.U64()
	e.stats.LoadsChecked = r.U64()
	e.stats.LineBackups = r.U64()
	e.stats.LineRestores = r.U64()
	e.stats.PagesTracked = r.U64()
	e.stats.Failures = r.U64()
	e.stats.BackupCycles = r.U64()
	e.stats.RestoreCycles = r.U64()
	e.stats.RollbackCycles = r.U64()
	e.stats.DirtyPageTouches = r.U64()

	words := e.wordsPerVec()
	n := r.Len(4 + 8 + 16*words + 1 + 4 + 8 + 8)
	e.pages = make(map[uint32]*pageRecord, n)
	prev := int64(-1)
	for i := 0; i < n; i++ {
		page := r.U32()
		rec := &pageRecord{
			dirty:    NewBitVec(e.cfg.LinesPerPage()),
			rollback: NewBitVec(e.cfg.LinesPerPage()),
		}
		rec.lts = r.U64()
		decodeVec(r, rec.dirty)
		decodeVec(r, rec.rollback)
		rec.rollbackVld = r.Bool()
		rec.backup = r.Blob()
		rec.everAllocGTS = r.U64()
		rec.touched = r.U64()
		if r.Err() != nil {
			return
		}
		if int64(page) <= prev || page&e.pageMask != 0 {
			r.Failf("checkpoint: page VAs out of order or unaligned at %#x", page)
			return
		}
		if rec.backup != nil && uint32(len(rec.backup)) != e.cfg.PageBytes {
			r.Failf("checkpoint: backup page of %d bytes, want %d", len(rec.backup), e.cfg.PageBytes)
			return
		}
		if rec.rollbackVld && rec.backup == nil {
			r.Failf("checkpoint: pending rollback on page %#x without backup storage", page)
			return
		}
		prev = int64(page)
		e.pages[page] = rec
	}
}
