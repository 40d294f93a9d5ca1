// Package tlb models the translation lookaside buffers of Table 4
// (4-way, 128-entry I-TLB and 256-entry D-TLB) for timing only. An
// entry holds a virtual page number, a valid bit and an LRU stamp;
// Stats counts accesses, misses and the page-table walk cycles the
// misses cost. Translation itself is functional (the OS-lite page
// tables are authoritative).
//
// The paper's INDRA extension has each TLB entry carry its page's
// backup page record (Figure 3). This model does not: the records live
// in checkpoint.Engine's page map, which the delta engine consults
// directly, at no modelled lookup cost.
package tlb

import "fmt"

// Config sizes a TLB.
type Config struct {
	Name    string
	Entries int
	Assoc   int
	// WalkCycles is the modelled page-table walk latency on a miss.
	WalkCycles uint64
}

// DefaultITLB mirrors Table 4's 4-way, 128-entry instruction TLB.
func DefaultITLB() Config { return Config{Name: "ITLB", Entries: 128, Assoc: 4, WalkCycles: 24} }

// DefaultDTLB mirrors Table 4's 4-way, 256-entry data TLB.
func DefaultDTLB() Config { return Config{Name: "DTLB", Entries: 256, Assoc: 4, WalkCycles: 24} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Entries <= 0 || c.Assoc <= 0:
		return fmt.Errorf("tlb %s: entries and assoc must be positive", c.Name)
	case c.Entries%c.Assoc != 0:
		return fmt.Errorf("tlb %s: entries %d not divisible by assoc %d", c.Name, c.Entries, c.Assoc)
	}
	sets := c.Entries / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb %s: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts TLB traffic.
type Stats struct {
	Accesses uint64
	Misses   uint64
	Cycles   uint64 // walk cycles paid
}

type entry struct {
	vpn   uint32
	valid bool
	lru   uint64
}

// TLB is a set-associative translation cache keyed by virtual page
// number. Not safe for concurrent use.
//
// last memoizes the entry the previous access touched (nil when
// unset): fetches stay on one code page for long runs, so a repeat
// access finishes as a hit without the set scan. The memo is derived
// state, reset wherever entries change other than through Access.
type TLB struct {
	cfg     Config
	sets    [][]entry
	setMask uint32
	clock   uint64
	stats   Stats
	last    *entry
	lastVPN uint32
}

// New builds a TLB, panicking on invalid configuration.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.Entries / cfg.Assoc
	sets := make([][]entry, nSets)
	backing := make([]entry, nSets*cfg.Assoc)
	for i := range sets {
		sets[i], backing = backing[:cfg.Assoc:cfg.Assoc], backing[cfg.Assoc:]
	}
	return &TLB{cfg: cfg, sets: sets, setMask: uint32(nSets - 1)}
}

// Config returns the TLB configuration.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a counter snapshot.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats clears counters, keeping contents.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// Access touches the translation for vpn and returns the cycles charged
// (0 on a hit, the walk latency on a miss).
func (t *TLB) Access(vpn uint32) uint64 {
	if t.last != nil && vpn == t.lastVPN {
		t.clock++
		t.stats.Accesses++
		t.last.lru = t.clock
		return 0
	}
	t.clock++
	t.stats.Accesses++
	set := vpn & t.setMask
	ways := t.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].vpn == vpn {
			ways[i].lru = t.clock
			t.last, t.lastVPN = &ways[i], vpn
			return 0
		}
	}
	t.stats.Misses++
	t.stats.Cycles += t.cfg.WalkCycles
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
	ways[victim] = entry{vpn: vpn, valid: true, lru: t.clock}
	t.last, t.lastVPN = &ways[victim], vpn
	return t.cfg.WalkCycles
}

// FlushAll invalidates every entry (context switch or recovery flush).
func (t *TLB) FlushAll() {
	for s := range t.sets {
		for w := range t.sets[s] {
			t.sets[s][w] = entry{}
		}
	}
	t.last = nil
}
