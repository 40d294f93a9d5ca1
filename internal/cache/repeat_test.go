package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"indra/internal/dram"
	"indra/internal/snapshot/wire"
)

// The repeat-access memo (Cache.last, lastLine, lastOK) is a host-speed
// shortcut and must be invisible: these tests drive the memoized model
// and a memo-free reference — the set scan as it stood before the
// memo, copied below — with the same operation stream and require
// identical results, counters and serialized state after every
// operation.

// refCache is the memo-free reference cache level.
type refCache struct {
	cfg      Config
	lines    []line
	assoc    uint32
	setMask  uint32
	setBits  uint32
	lineBits uint32
	clock    uint64
	stats    Stats
}

func newRefCache(cfg Config) *refCache {
	c := New(cfg) // same geometry derivation
	return &refCache{
		cfg: cfg, lines: make([]line, len(c.lines)), assoc: c.assoc,
		setMask: c.setMask, setBits: c.setBits, lineBits: c.lineBits,
	}
}

func (c *refCache) lineAddr(addr uint32) uint32 { return addr &^ (c.cfg.LineBytes - 1) }

func (c *refCache) decompose(addr uint32) (set uint32, tag uint32) {
	l := addr >> c.lineBits
	return l & c.setMask, l >> c.setBits
}

func (c *refCache) reconstruct(set, tag uint32) uint32 {
	return ((tag << c.setBits) | set) << c.lineBits
}

func (c *refCache) Access(addr uint32, write bool) Result {
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
			return Result{Hit: true}
		}
	}
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
	res := Result{Fill: true, FillLineAddr: c.lineAddr(addr)}
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
	return res
}

func (c *refCache) InvalidateAll() { clear(c.lines) }

func (c *refCache) Flush() int {
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

func (c *refCache) EncodeState(w *wire.Writer) {
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

func (c *refCache) DecodeState(r *wire.Reader) {
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

// refHierarchy is the memo-free reference hierarchy: the access path
// as it stood before the L1 repeat check.
type refHierarchy struct {
	cfg          HierarchyConfig
	l1i, l1d, l2 *refCache
	mem          *dram.Model
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	return &refHierarchy{
		cfg: cfg, l1i: newRefCache(cfg.L1I), l1d: newRefCache(cfg.L1D),
		l2: newRefCache(cfg.L2), mem: dram.New(cfg.DRAMConfig),
	}
}

func (h *refHierarchy) access(l1 *refCache, addr uint32, write bool) AccessEvent {
	ev := AccessEvent{Cycles: h.cfg.L1Latency}
	r1 := l1.Access(addr, write)
	if r1.Hit {
		return ev
	}
	ev.L1Miss = true
	ev.FillLine = l1.lineAddr(addr)
	ev.Cycles += h.cfg.L2Latency
	if r1.Writeback {
		h.l2.Access(r1.VictimAddr, true)
	}
	r2 := h.l2.Access(addr, false)
	if !r2.Hit {
		ev.L2Miss = true
		ev.Cycles += h.mem.Access(addr, h.cfg.L2.LineBytes)
		if r2.Writeback {
			ev.Cycles += h.mem.Access(r2.VictimAddr, h.cfg.L2.LineBytes)
		}
	}
	return ev
}

func (h *refHierarchy) EncodeState(w *wire.Writer) {
	h.l1i.EncodeState(w)
	h.l1d.EncodeState(w)
	h.l2.EncodeState(w)
	h.mem.EncodeState(w)
}

func (h *refHierarchy) DecodeState(r *wire.Reader) {
	h.l1i.DecodeState(r)
	h.l1d.DecodeState(r)
	h.l2.DecodeState(r)
	h.mem.DecodeState(r)
}

// encodeHierarchy serializes a hierarchy together with its DRAM model,
// in refHierarchy.EncodeState's layout.
func encodeHierarchy(h *Hierarchy) []byte {
	var w wire.Writer
	h.EncodeState(&w)
	h.mem.EncodeState(&w)
	return w.Bytes()
}

func decodeHierarchy(t *testing.T, h *Hierarchy, b []byte) {
	t.Helper()
	r := wire.NewReader(b)
	h.DecodeState(r)
	h.mem.DecodeState(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func encodeRefHierarchy(h *refHierarchy) []byte {
	var w wire.Writer
	h.EncodeState(&w)
	return w.Bytes()
}

// repeatAddrs draws an address stream with the shape of a core's:
// mostly repeats within the last line, plus a pool of lines that
// conflict in the L1s (stride l1) and share L2 sets (stride l2).
func repeatAddrs(rng *rand.Rand, last, l1, l2 uint32) uint32 {
	if rng.Intn(3) > 0 {
		return last&^31 | uint32(rng.Intn(32))
	}
	base := uint32(rng.Intn(8)) * l1
	if rng.Intn(4) == 0 {
		base = uint32(rng.Intn(6)) * l2
	}
	return base + uint32(rng.Intn(4))*32 + uint32(rng.Intn(32))
}

// TestHierarchyRepeatMatchesReference drives the memoized hierarchy
// and the memo-free reference through seeded random streams of
// fetches, loads, stores, invalidations, flushes and snapshot round
// trips, including decodes of older states. The geometries are scaled
// down so that comparing the serialized state after every operation
// stays cheap: Table 4's shape (direct-mapped L1s, 4-way L2), a
// set-associative L1 variant, and a write-through L1D.
func TestHierarchyRepeatMatchesReference(t *testing.T) {
	shape := DefaultHierarchyConfig()
	shape.L1I.SizeBytes, shape.L1D.SizeBytes, shape.L2.SizeBytes = 1<<10, 1<<10, 8<<10
	assoc := shape
	assoc.L1I.Assoc, assoc.L1D.Assoc, assoc.L2.Assoc = 2, 4, 2
	wt := shape
	wt.L1D.WriteBack = false
	cfgs := map[string]HierarchyConfig{"table4-shape": shape, "assoc-l1": assoc, "l1d-write-through": wt}

	for name, cfg := range cfgs {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				h := NewHierarchy(cfg, nil)
				ref := newRefHierarchy(cfg)
				l1 := cfg.L1D.SizeBytes / uint32(cfg.L1D.Assoc)
				l2 := cfg.L2.SizeBytes / uint32(cfg.L2.Assoc)
				var saved [][]byte
				var addr uint32
				for step := 0; step < 5_000; step++ {
					op := rng.Intn(100)
					var got, want AccessEvent
					var what string
					switch {
					case op < 40:
						addr = repeatAddrs(rng, addr, l1, l2)
						what = fmt.Sprintf("fetch %#x", addr)
						got, want = h.Fetch(addr), ref.access(ref.l1i, addr, false)
					case op < 70:
						addr = repeatAddrs(rng, addr, l1, l2)
						what = fmt.Sprintf("load %#x", addr)
						got, want = h.Load(addr), ref.access(ref.l1d, addr, false)
					case op < 95:
						addr = repeatAddrs(rng, addr, l1, l2)
						what = fmt.Sprintf("store %#x", addr)
						got, want = h.Store(addr), ref.access(ref.l1d, addr, true)
					case op == 95:
						what = "invalidate-all"
						h.InvalidateAll()
						ref.l1i.InvalidateAll()
						ref.l1d.InvalidateAll()
						ref.l2.InvalidateAll()
					case op == 96:
						what = "flush"
						if a, b := h.L1D().Flush()+h.L2().Flush(), ref.l1d.Flush()+ref.l2.Flush(); a != b {
							t.Fatalf("step %d flush: %d dirty lines, reference %d", step, a, b)
						}
					case op == 97:
						what = "save"
						saved = append(saved, encodeHierarchy(h))
					case op == 98:
						what = "round-trip"
						decodeHierarchy(t, h, encodeHierarchy(h))
						ref.DecodeState(wire.NewReader(encodeRefHierarchy(ref)))
					default:
						if len(saved) == 0 {
							continue
						}
						what = "restore-older"
						b := saved[rng.Intn(len(saved))]
						decodeHierarchy(t, h, b)
						ref.DecodeState(wire.NewReader(b))
					}
					if got != want {
						t.Fatalf("step %d %s: event %+v, reference %+v", step, what, got, want)
					}
					for lvl, pair := range [][2]Stats{
						{h.L1I().Stats(), ref.l1i.stats},
						{h.L1D().Stats(), ref.l1d.stats},
						{h.L2().Stats(), ref.l2.stats},
					} {
						if pair[0] != pair[1] {
							t.Fatalf("step %d %s: level %d stats %+v, reference %+v", step, what, lvl, pair[0], pair[1])
						}
					}
					if !bytes.Equal(encodeHierarchy(h), encodeRefHierarchy(ref)) {
						t.Fatalf("step %d %s: serialized state diverges from reference", step, what)
					}
				}
			})
		}
	}
}

// TestCacheRepeatMatchesReference is the single-level twin: the repeat
// check ahead of Access, as the hierarchy runs it on its L1s, against
// the reference's Access results (including write-backs of lines the
// memo dirtied) on a write-back and a write-through cache.
func TestCacheRepeatMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "wb", SizeBytes: 512, LineBytes: 32, Assoc: 2, WriteBack: true},
		{Name: "wt", SizeBytes: 512, LineBytes: 32, Assoc: 1},
	} {
		rng := rand.New(rand.NewSource(7))
		c, ref := New(cfg), newRefCache(cfg)
		var addr uint32
		for step := 0; step < 20_000; step++ {
			if rng.Intn(50) == 0 {
				c.InvalidateAll()
				ref.InvalidateAll()
				continue
			}
			if rng.Intn(3) > 0 {
				addr = addr&^31 | uint32(rng.Intn(32))
			} else {
				addr = uint32(rng.Intn(48)) * 32
			}
			write := rng.Intn(3) == 0
			got := Result{Hit: true}
			if !c.repeat(addr, write) {
				got = c.Access(addr, write)
			}
			if want := ref.Access(addr, write); got != want {
				t.Fatalf("%s step %d access %#x write=%v: %+v, reference %+v", cfg.Name, step, addr, write, got, want)
			}
			if c.Stats() != ref.stats {
				t.Fatalf("%s step %d: stats %+v, reference %+v", cfg.Name, step, c.Stats(), ref.stats)
			}
		}
	}
}

// TestDecodeStateResetsRepeatMemo pins the memo reset on decode: after
// restoring a state in which the memoized line is absent, a repeat of
// the last access must miss.
func TestDecodeStateResetsRepeatMemo(t *testing.T) {
	c := smallDM()
	var empty wire.Writer
	c.EncodeState(&empty)
	c.Access(0, false) // memoizes line 0
	c.DecodeState(wire.NewReader(empty.Bytes()))
	if c.repeat(0, false) {
		t.Fatal("repeat access hit a line the restored state does not hold")
	}

	h := NewHierarchy(DefaultHierarchyConfig(), nil)
	before := encodeHierarchy(h)
	h.Fetch(0x1000)
	decodeHierarchy(t, h, before)
	if ev := h.Fetch(0x1000); !ev.L1Miss {
		t.Fatal("repeat fetch hit an L1 line the restored state does not hold")
	}
}
