package cpu

import (
	"indra/internal/isa"
	"indra/internal/mem"
)

// The predecode cache decodes each static instruction once into a
// flattened isa.Predecoded and serves later fetches of the same
// physical address from the cached form. It is a simulator-speed
// structure, not a modelled one: it carries no timing (the IL1/TLB
// models still run on every fetch) and must therefore be perfectly
// coherent with memory. Coherence comes from the physical page write
// version: every store, DMA transfer, loader write and checkpoint-line
// restore bumps the containing page's version in mem.Physical, and a
// version mismatch flushes the page's decoded entries before use. That
// keeps self-modifying code — including injected attack payloads and
// recovery rollbacks that rewrite code pages — architecturally exact.

// pageWords is how many 4-byte instruction slots one page holds.
const pageWords = mem.PageBytes / isa.InstBytes

// Word tags of a decPage. A tag at or above tagFuse also records the
// block engine's dispatch decision for the word: tagFuse+k means the
// word starts superinstruction k (isa.FuseNone included), so the
// decision is made once per word under the page's current contents.
const (
	tagEmpty   uint8 = iota // not decoded
	tagDecoded              // decoded, dispatch kind not yet classified
	tagFuse                 // tagFuse + uint8(isa.FuseKind)
)

// decPage holds the decoded entries of one physical code page.
type decPage struct {
	version uint32 // mem page version the entries were decoded under
	tag     [pageWords]uint8
	insts   [pageWords]isa.Predecoded
}

// at returns word i of the page based at base, decoding it on first
// use.
func (pg *decPage) at(phys *mem.Physical, base, i uint32) *isa.Predecoded {
	if pg.tag[i] == tagEmpty {
		pg.decode(phys, base, i)
	}
	return &pg.insts[i]
}

// decode fills word i's slot from memory (at's slow path).
func (pg *decPage) decode(phys *mem.Physical, base, i uint32) {
	pg.insts[i] = isa.Predecode(phys.Read32(base + i*isa.InstBytes))
	pg.tag[i] = tagDecoded
}

// kind returns the dispatch kind of word i: the superinstruction that
// starts there, or isa.FuseNone.
func (pg *decPage) kind(phys *mem.Physical, base, i uint32) isa.FuseKind {
	if t := pg.tag[i]; t >= tagFuse {
		return isa.FuseKind(t - tagFuse)
	}
	return pg.classify(phys, base, i)
}

// classify makes word i's dispatch decision on its first dispatch, by
// the block-formation rule: a terminator never fuses, and a pair never
// straddles the page end.
func (pg *decPage) classify(phys *mem.Physical, base, i uint32) isa.FuseKind {
	in := pg.at(phys, base, i)
	k := isa.FuseNone
	if !isa.EndsBlock(in) && i+1 < pageWords {
		k = isa.Fuse(in, pg.at(phys, base, i+1))
	}
	pg.tag[i] = tagFuse + uint8(k)
	return k
}

// predecoder is one core's predecode cache: a per-page map with a
// one-entry fast path for the page executed last (code loops stay
// within a page for long stretches).
type predecoder struct {
	pages    map[uint32]*decPage
	last     *decPage
	lastBase uint32
	scratch  isa.Predecoded // for uncacheable (unaligned) fetches
}

func newPredecoder() predecoder {
	return predecoder{pages: make(map[uint32]*decPage)}
}

// page returns the decoded page based at physical address base,
// flushing its entries when the page was written since they were
// decoded.
func (d *predecoder) page(phys *mem.Physical, base uint32) *decPage {
	pg := d.last
	if pg == nil || d.lastBase != base {
		pg = d.pages[base]
		if pg == nil {
			pg = &decPage{}
			d.pages[base] = pg
		}
		d.last, d.lastBase = pg, base
	}
	if v := phys.PageVersion(base); pg.version != v {
		// The page was written since these entries were decoded
		// (self-modifying store, frame reuse, rollback): flush.
		pg.tag = [pageWords]uint8{}
		pg.version = v
	}
	return pg
}

// entry returns the decoded instruction at physical address pa,
// decoding and caching it on first visit. Unaligned fetch addresses
// (reachable only through attack-crafted jump targets) bypass the
// cache: they cannot share the word-indexed slots.
func (d *predecoder) entry(phys *mem.Physical, pa uint32) *isa.Predecoded {
	if pa&3 != 0 {
		d.scratch = isa.Predecode(phys.Read32(pa))
		return &d.scratch
	}
	base := pa &^ uint32(mem.PageBytes-1)
	return d.page(phys, base).at(phys, base, (pa-base)/isa.InstBytes)
}

// Predecoded reports whether the instruction at physical address pa is
// currently held decoded and valid against the page's write version
// (introspection for tests).
func (c *Core) Predecoded(pa uint32) bool {
	if pa&3 != 0 {
		return false
	}
	base := pa &^ uint32(mem.PageBytes-1)
	pg := c.dec.pages[base]
	if pg == nil || pg.version != c.phys.PageVersion(pa) {
		return false
	}
	return pg.tag[(pa-base)/isa.InstBytes] != tagEmpty
}
