// Package cache provides set-associative cache timing models and the
// composed L1I/L1D/L2 hierarchy used by each simulated core (Table 4 of
// the paper: 16 KB direct-mapped split L1s with 32 B lines, a 512 KB
// 4-way unified write-back L2 with 64 B lines, 1-cycle L1 and 8-cycle
// L2 latencies).
//
// The caches are tag-only: data always lives in the flat physical
// memory, and the cache tracks presence and dirtiness purely to produce
// latencies, miss streams and writeback traffic. The L1 instruction
// cache's miss stream is architecturally significant in INDRA — every
// IL1 fill is the code-origin inspection point (Section 3.2.2).
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes uint32
	LineBytes uint32
	Assoc     int  // 1 = direct-mapped
	WriteBack bool // write-back/write-allocate when true, else write-through
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes == 0 || c.LineBytes == 0:
		return fmt.Errorf("cache %s: zero size or line", c.Name)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache %s: LineBytes must be a power of two, got %d", c.Name, c.LineBytes)
	case c.Assoc <= 0:
		return fmt.Errorf("cache %s: Assoc must be positive, got %d", c.Name, c.Assoc)
	case c.SizeBytes%(c.LineBytes*uint32(c.Assoc)) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by line*assoc", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * uint32(c.Assoc))
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
	Fills      uint64
	Evictions  uint64 // valid lines displaced (clean or dirty)
}

// MissRate returns misses/accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint32
	valid bool
	dirty bool
	lru   uint64 // last-use stamp
}

// Cache is a single tag-array cache level. Not safe for concurrent use.
//
// The tag array is one flat slice indexed set*assoc — a set's ways are
// contiguous — so the per-access lookup is a single bounds-checked
// slice window with no per-set pointer chase. The set and tag field
// widths are precomputed at construction; the access path does no
// iterative bit counting.
//
// The memo (last, lastLine, lastOK) holds the flat index and the line
// number addr>>lineBits of the line the previous access touched:
// consecutive fetches walk one line eight instructions at a time, so
// the hierarchy finishes a repeat L1 access (repeat) without
// decomposing the address or scanning the set. It is an index, not a
// pointer, so setting it in every Access costs no GC write barrier.
// The memo is derived state, reset wherever lines change other than
// through Access.
type Cache struct {
	cfg      Config
	lines    []line // flat tag array: set s occupies lines[s*assoc : (s+1)*assoc]
	assoc    uint32
	setMask  uint32
	setBits  uint32 // width of the set-index field (tag shift amount)
	lineBits uint32
	clock    uint64
	stats    Stats
	last     uint32
	lastLine uint32
	lastOK   bool
}

// New builds a cache, panicking on invalid configuration (configs are
// produced by code, not parsed from external input).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.SizeBytes / (cfg.LineBytes * uint32(cfg.Assoc))
	lineBits := uint32(0)
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		lineBits++
	}
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, int(nSets)*cfg.Assoc),
		assoc:    uint32(cfg.Assoc),
		setMask:  nSets - 1,
		setBits:  popBits(nSets - 1),
		lineBits: lineBits,
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the counters but keeps cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// LineAddr masks an address down to its line base.
func (c *Cache) LineAddr(addr uint32) uint32 { return addr &^ (c.cfg.LineBytes - 1) }

func (c *Cache) decompose(addr uint32) (set uint32, tag uint32) {
	l := addr >> c.lineBits
	return l & c.setMask, l >> c.setBits
}

func popBits(mask uint32) uint32 {
	n := uint32(0)
	for ; mask != 0; mask >>= 1 {
		n++
	}
	return n
}

// Result describes the outcome of a cache access.
type Result struct {
	Hit           bool
	Fill          bool   // a line was brought in
	Writeback     bool   // a dirty victim was evicted
	VictimAddr    uint32 // line base address of the evicted line (valid if Writeback)
	FillLineAddr  uint32 // line base address brought in (valid if Fill)
	EvictedValid  bool   // an existing (possibly clean) line was displaced
	EvictededAddr uint32 // line base of the displaced line
}

// Access performs a read (write=false) or write (write=true) of the line
// containing addr, updating tags, LRU and dirty state.
func (c *Cache) Access(addr uint32, write bool) Result {
	c.clock++
	c.stats.Accesses++
	set, tag := c.decompose(addr)
	ways := c.lines[set*c.assoc : (set+1)*c.assoc]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.clock
			if write {
				if c.cfg.WriteBack {
					ways[i].dirty = true
				}
			}
			c.memo(set*c.assoc+uint32(i), addr)
			return Result{Hit: true}
		}
	}
	// Miss: choose victim (invalid first, else LRU).
	c.stats.Misses++
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	res := Result{Fill: true, FillLineAddr: c.LineAddr(addr)}
	v := &ways[victim]
	if v.valid {
		res.EvictedValid = true
		c.stats.Evictions++
		res.EvictededAddr = c.reconstruct(set, v.tag)
		if v.dirty {
			res.Writeback = true
			res.VictimAddr = res.EvictededAddr
			c.stats.Writebacks++
		}
	}
	v.valid = true
	v.tag = tag
	v.dirty = write && c.cfg.WriteBack
	v.lru = c.clock
	c.stats.Fills++
	c.memo(set*c.assoc+uint32(victim), addr)
	return res
}

// repeat finishes an access to the line the previous access touched,
// making exactly the updates a hit makes (clock, access count, LRU
// stamp, and the dirty bit on a write-back store), and reports whether
// it did. The hierarchy calls it ahead of Access on its L1s.
func (c *Cache) repeat(addr uint32, write bool) bool {
	if !c.lastOK || addr>>c.lineBits != c.lastLine {
		return false
	}
	c.clock++
	c.stats.Accesses++
	l := &c.lines[c.last]
	l.lru = c.clock
	if write && c.cfg.WriteBack {
		l.dirty = true
	}
	return true
}

// memo records lines[i], which now holds addr's line, as the line the
// last access touched.
func (c *Cache) memo(i, addr uint32) {
	c.last, c.lastLine, c.lastOK = i, addr>>c.lineBits, true
}

// reconstruct rebuilds a line base address from set index and tag.
func (c *Cache) reconstruct(set, tag uint32) uint32 {
	return ((tag << c.setBits) | set) << c.lineBits
}

// Contains reports whether the line holding addr is present (no state
// change; for tests and introspection).
func (c *Cache) Contains(addr uint32) bool {
	set, tag := c.decompose(addr)
	for _, w := range c.lines[set*c.assoc : (set+1)*c.assoc] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// InvalidateAll drops every line (e.g. pipeline flush on recovery,
// Section 2.3.3). Dirty lines are discarded, not written back: recovery
// explicitly reconstructs memory state through the checkpoint engine.
func (c *Cache) InvalidateAll() {
	clear(c.lines)
	c.lastOK = false
}

// Flush writes back all dirty lines, returning how many were dirty.
func (c *Cache) Flush() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			n++
			c.lines[i].dirty = false
			c.stats.Writebacks++
		}
	}
	return n
}
