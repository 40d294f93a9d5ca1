// Package checkpoint implements INDRA's delta-page memory state backup
// and recovery-on-demand engine (Section 3.3 of the paper), plus the
// baseline schemes it is compared against (subpackage baseline).
//
// The engine assigns each virtual page requiring backup a physical
// backup page and stores only the cache lines that are modified. A
// Global TimeStamp (GTS) advances when the server application starts a
// new network request; each page carries a Local TimeStamp (LTS), a
// dirty bitvector and a rollback bitvector (Figure 3). Backup happens
// incrementally on first write per line (Figure 4); recovery is
// *deferred*: on failure the rollback bitvector is OR-ed with the dirty
// bitvector and the actual line restoration happens lazily on the next
// read or write of each line (Figures 5 and 6), so neither backup nor
// rollback ever copies a whole page.
package checkpoint

import (
	"fmt"
	"sort"
)

// Memory is the engine's view of the application's virtual memory. The
// engine reads pre-images from it during backup and writes restored
// lines back during lazy rollback.
type Memory interface {
	// ReadLine fills buf with the line starting at virtual address va.
	ReadLine(va uint32, buf []byte)
	// WriteLine stores data at virtual address va.
	WriteLine(va uint32, data []byte)
}

// Tamperer is a fault-injection hook into the engine's storage. The
// chip implements it with an adapter over internal/faultinject (the
// engine cannot import that package without a cycle); a nil tamperer —
// the default — costs nothing and changes nothing. Each method may
// mutate its arguments in place to model a transient hardware fault:
//
//   - TamperBackup sees a backup line right after the pre-image copy.
//   - TamperBitvec sees a page's dirty/rollback bitvector words while
//     Fail processes that page; nbits bounds the meaningful bits.
//   - TamperRestore sees the staged line about to be written back
//     during lazy rollback (the backup page itself stays intact, as a
//     DRAM read fault corrupts the wire, not the cell).
type Tamperer interface {
	TamperBackup(line []byte)
	TamperBitvec(dirty, rollback []uint64, nbits int)
	TamperRestore(line []byte)
}

// CostFunc prices a line transfer of n bytes touching backing storage.
// The chip wires this to its DRAM model so checkpoint traffic is costed
// consistently with ordinary misses; tests may supply constants.
type CostFunc func(n uint32) uint64

// Config sizes the engine's pages and lines. Lines here are backup
// granules; the paper uses the L1D line size (32 B) within 4 KB pages.
type Config struct {
	PageBytes uint32
	LineBytes uint32
}

// DefaultConfig matches the paper: 4 KB pages, 32 B backup lines.
func DefaultConfig() Config { return Config{PageBytes: 4096, LineBytes: 32} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.PageBytes == 0 || c.PageBytes&(c.PageBytes-1) != 0:
		return fmt.Errorf("checkpoint: PageBytes must be a power of two, got %d", c.PageBytes)
	case c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("checkpoint: LineBytes must be a power of two, got %d", c.LineBytes)
	case c.LineBytes > c.PageBytes:
		return fmt.Errorf("checkpoint: LineBytes %d exceeds PageBytes %d", c.LineBytes, c.PageBytes)
	}
	return nil
}

// LinesPerPage returns the number of backup granules per page.
func (c Config) LinesPerPage() int { return int(c.PageBytes / c.LineBytes) }

// pageRecord is the backup page record of Figure 3: backup page
// storage, local timestamp, dirty bitvector and rollback bitvector.
type pageRecord struct {
	lts          uint64
	dirty        BitVec
	rollback     BitVec
	rollbackVld  bool
	backup       []byte // one physical backup page, allocated on demand
	everAllocGTS uint64 // GTS at which the backup page was first allocated
	// touched is the GTS of the last era whose first backup or restore
	// on this page counted in Stats.DirtyPageTouches.
	touched uint64
}

// Stats aggregates engine activity.
type Stats struct {
	GTSIncrements  uint64
	StoresChecked  uint64
	LoadsChecked   uint64
	LineBackups    uint64 // lines copied into backup pages
	LineRestores   uint64 // lines lazily copied back on rollback
	PagesTracked   uint64 // pages with an allocated backup page
	Failures       uint64 // rollback events processed
	BackupCycles   uint64 // modelled cycles spent copying lines to backup
	RestoreCycles  uint64 // modelled cycles spent restoring lines
	RollbackCycles uint64 // modelled cycles spent in the failure handler itself
	// DirtyPageTouches counts pages that received at least one backup in
	// each GTS era; used for the Figure 15 denominator.
	DirtyPageTouches uint64
}

// Engine is the per-process delta checkpoint engine. Not safe for
// concurrent use: it belongs to exactly one simulated core's process.
type Engine struct {
	cfg       Config
	mem       Memory
	cost      CostFunc
	gts       uint64
	pages     map[uint32]*pageRecord // key: page base VA
	lineBuf   []byte
	stats     Stats
	lineShift uint32
	pageMask  uint32
	tamper    Tamperer
}

// NewEngine creates an engine over mem with the given line-copy cost
// function. A nil cost function prices every transfer at zero cycles
// (functional mode).
func NewEngine(cfg Config, mem Memory, cost CostFunc) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cost == nil {
		cost = func(uint32) uint64 { return 0 }
	}
	ls := uint32(0)
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		ls++
	}
	return &Engine{
		cfg:       cfg,
		mem:       mem,
		cost:      cost,
		gts:       1, // GTS 0 is reserved as "before any checkpoint"
		pages:     make(map[uint32]*pageRecord),
		lineBuf:   make([]byte, cfg.LineBytes),
		lineShift: ls,
		pageMask:  cfg.PageBytes - 1,
	}, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetTamperer installs (or, with nil, removes) the fault-injection
// hook. Tampering with checkpoint storage is only meaningful when
// deterministic: paths that visit pages in bulk iterate them in sorted
// VA order so the tamperer's event stream is reproducible.
func (e *Engine) SetTamperer(t Tamperer) { e.tamper = t }

// GTS returns the current global timestamp.
func (e *Engine) GTS() uint64 { return e.gts }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// ResetStats clears counters without touching backup state.
func (e *Engine) ResetStats() { e.stats = Stats{} }

// IncrementGTS starts a new checkpoint era: the server application has
// accepted a new network request and believes its state healthy
// (Section 3.3.1, "Global and Local Checkpointing Timestamp"). Dirty
// bits of earlier eras become committed and are cleared lazily on the
// next write to each page.
func (e *Engine) IncrementGTS() {
	e.gts++
	e.stats.GTSIncrements++
}

func (e *Engine) pageOf(va uint32) uint32 { return va &^ e.pageMask }
func (e *Engine) lineOf(va uint32) int    { return int((va & e.pageMask) >> e.lineShift) }
func (e *Engine) lineVA(page uint32, l int) uint32 {
	return page + uint32(l)<<e.lineShift
}

func (e *Engine) record(page uint32) *pageRecord {
	rec := e.pages[page]
	if rec == nil {
		rec = &pageRecord{
			dirty:    NewBitVec(e.cfg.LinesPerPage()),
			rollback: NewBitVec(e.cfg.LinesPerPage()),
		}
		e.pages[page] = rec
	}
	return rec
}

// PreStore implements the memory-write flow of Figure 4. It must be
// called immediately *before* the store modifies memory, with the
// store's virtual address. The returned cycles are the modelled cost of
// any backup or lazy-restore work triggered by this store.
//
// Stores in SRV32 are at most 4 bytes and aligned, so they never cross
// a backup line.
func (e *Engine) PreStore(va uint32) uint64 {
	e.stats.StoresChecked++
	page := e.pageOf(va)
	l := e.lineOf(va)
	rec := e.record(page)
	var cycles uint64

	// New era for this page: allocate backup storage if needed and
	// retire the previous era's dirty bits (they are committed state).
	if e.gts > rec.lts {
		if rec.backup == nil {
			rec.backup = make([]byte, e.cfg.PageBytes)
			rec.everAllocGTS = e.gts
			e.stats.PagesTracked++
		}
		rec.dirty.Reset()
		rec.lts = e.gts
	}

	if rec.rollbackVld && rec.rollback.Test(l) {
		// The line's good value lives in the backup page. Restore it so a
		// sub-line store lands on correct surrounding bytes. The backup
		// line already holds the pre-image for the new era, so no copy
		// into the backup is needed — only the dirty bit flips on.
		e.restoreLine(rec, page, l)
		cycles += e.chargeRestore()
		rec.dirty.Set(l)
		e.markTouched(rec)
		return cycles
	}

	if !rec.dirty.Test(l) {
		// First modification of this line in the current era: copy the
		// pre-image into the backup page (Figure 4's backup path).
		off := uint32(l) << e.lineShift
		e.mem.ReadLine(e.lineVA(page, l), e.lineBuf)
		copy(rec.backup[off:off+e.cfg.LineBytes], e.lineBuf)
		if e.tamper != nil {
			e.tamper.TamperBackup(rec.backup[off : off+e.cfg.LineBytes])
		}
		rec.dirty.Set(l)
		e.stats.LineBackups++
		c := e.cost(e.cfg.LineBytes)
		e.stats.BackupCycles += c
		cycles += c
		e.markTouched(rec)
	}
	return cycles
}

// PreLoad implements the memory-read flow of Figure 5: if the addressed
// line has a pending rollback, its value is lazily restored from the
// backup page before the load proceeds.
func (e *Engine) PreLoad(va uint32) uint64 {
	e.stats.LoadsChecked++
	rec := e.pages[e.pageOf(va)]
	if rec == nil || !rec.rollbackVld {
		return 0
	}
	l := e.lineOf(va)
	if !rec.rollback.Test(l) {
		return 0
	}
	e.restoreLine(rec, e.pageOf(va), l)
	return e.chargeRestore()
}

func (e *Engine) restoreLine(rec *pageRecord, page uint32, l int) {
	off := uint32(l) << e.lineShift
	line := rec.backup[off : off+e.cfg.LineBytes]
	if e.tamper != nil {
		// Stage through lineBuf so a read fault corrupts only this
		// restoration, never the backup cell itself.
		copy(e.lineBuf, line)
		e.tamper.TamperRestore(e.lineBuf)
		line = e.lineBuf
	}
	e.mem.WriteLine(e.lineVA(page, l), line)
	rec.rollback.Clear(l)
	if !rec.rollback.Any() {
		rec.rollbackVld = false
	}
	e.stats.LineRestores++
}

func (e *Engine) chargeRestore() uint64 {
	c := e.cost(e.cfg.LineBytes)
	e.stats.RestoreCycles += c
	return c
}

func (e *Engine) markTouched(rec *pageRecord) {
	if rec.touched != e.gts {
		rec.touched = e.gts
		e.stats.DirtyPageTouches++
	}
}

// Fail processes a detected corruption (Figure 6's failure path): for
// every page modified in the current era, the rollback bitvector
// absorbs the dirty bitvector and the dirty bits clear. No memory is
// copied — restoration happens on demand during subsequent execution.
// The returned cycles model the handler's bitvector work.
//
// Only pages whose LTS equals the current GTS participate: pages whose
// dirty bits date from an earlier, already-committed era must not be
// rolled back. (The paper iterates "every backup page"; the LTS guard
// is the necessary refinement that keeps committed state intact, and is
// exactly what the LTS field exists to decide.)
func (e *Engine) Fail() uint64 {
	e.stats.Failures++
	var cycles uint64
	for _, page := range e.sortedPages() {
		rec := e.pages[page]
		if rec.lts != e.gts || rec.backup == nil {
			continue
		}
		if rec.dirty.Any() {
			rec.rollback.Or(rec.dirty)
			rec.dirty.Reset()
			rec.rollbackVld = true
		}
		if e.tamper != nil {
			e.tamper.TamperBitvec(rec.dirty, rec.rollback, e.cfg.LinesPerPage())
			rec.rollbackVld = rec.rollback.Any()
		}
		cycles += 2 // bitvector OR + clear: trivial hardware cost per page
	}
	e.stats.RollbackCycles += cycles
	return cycles
}

// sortedPages returns every tracked page base in ascending VA order.
// Bulk paths iterate this instead of the map so fault injection sees a
// reproducible event stream regardless of map layout.
func (e *Engine) sortedPages() []uint32 {
	pages := make([]uint32, 0, len(e.pages))
	for page := range e.pages {
		pages = append(pages, page)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return pages
}

// PendingRollbacks returns the number of lines whose restoration is
// still deferred, across all pages. Useful for tests and introspection.
func (e *Engine) PendingRollbacks() int {
	n := 0
	for _, rec := range e.pages {
		if rec.rollbackVld {
			n += rec.rollback.Count()
		}
	}
	return n
}

// TrackedPages returns the number of pages with allocated backup pages,
// i.e. the physical memory overhead in pages (Section 3.3.1, "Overhead
// of Backup Space").
func (e *Engine) TrackedPages() int {
	n := 0
	for _, rec := range e.pages {
		if rec.backup != nil {
			n++
		}
	}
	return n
}

// DrainRollbacks eagerly applies every pending rollback. INDRA itself
// never needs this — restoration is on demand — but the ablation
// benchmarks use it to compare deferred against eager recovery, and
// macro (application-level) checkpoint restoration uses it to reach a
// consistent memory image.
func (e *Engine) DrainRollbacks() (lines int, cycles uint64) {
	for _, page := range e.sortedPages() {
		rec := e.pages[page]
		if !rec.rollbackVld {
			continue
		}
		for l := 0; l < e.cfg.LinesPerPage(); l++ {
			if rec.rollback.Test(l) {
				e.restoreLine(rec, page, l)
				cycles += e.chargeRestore()
				lines++
			}
		}
	}
	return lines, cycles
}

// Discard forgets all backup state (used when a macro checkpoint is
// restored and the delta history becomes meaningless).
func (e *Engine) Discard() {
	e.pages = make(map[uint32]*pageRecord)
}
