package tlb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"indra/internal/snapshot/wire"
)

// The repeat-access memo (TLB.last) must be invisible: these tests
// drive the memoized TLB and a memo-free reference — the set scan as
// it stood before the memo, copied below — with the same operation
// stream and require identical walk costs, counters and serialized
// state after every operation.

// refTLB is the memo-free reference.
type refTLB struct {
	cfg     Config
	sets    [][]entry
	setMask uint32
	clock   uint64
	stats   Stats
}

func newRefTLB(cfg Config) *refTLB {
	t := New(cfg) // same geometry derivation
	sets := make([][]entry, len(t.sets))
	for i := range sets {
		sets[i] = make([]entry, cfg.Assoc)
	}
	return &refTLB{cfg: cfg, sets: sets, setMask: t.setMask}
}

func (t *refTLB) Access(vpn uint32) uint64 {
	t.clock++
	t.stats.Accesses++
	set := vpn & t.setMask
	ways := t.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].vpn == vpn {
			ways[i].lru = t.clock
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
	return t.cfg.WalkCycles
}

func (t *refTLB) FlushAll() {
	for s := range t.sets {
		for w := range t.sets[s] {
			t.sets[s][w] = entry{}
		}
	}
}

func (t *refTLB) EncodeState(w *wire.Writer) {
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

func (t *refTLB) DecodeState(r *wire.Reader) {
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

type encoder interface{ EncodeState(*wire.Writer) }

func encode(e encoder) []byte {
	var w wire.Writer
	e.EncodeState(&w)
	return w.Bytes()
}

// TestRepeatMatchesReference runs seeded random streams of accesses
// (mostly repeats of the last page, plus pages that conflict within a
// set), flushes and snapshot round trips, including decodes of older
// states, on Table 4's TLBs and a small one that evicts constantly.
func TestRepeatMatchesReference(t *testing.T) {
	cfgs := []Config{DefaultITLB(), DefaultDTLB(), {Name: "tiny", Entries: 4, Assoc: 2, WalkCycles: 9}}
	for _, cfg := range cfgs {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.Name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				tl, ref := New(cfg), newRefTLB(cfg)
				sets := uint32(cfg.Entries / cfg.Assoc)
				var saved [][]byte
				var vpn uint32
				for step := 0; step < 5_000; step++ {
					op := rng.Intn(100)
					var got, want uint64
					var what string
					switch {
					case op < 94:
						if rng.Intn(3) == 0 {
							// A small pool of pages, several per set.
							vpn = uint32(rng.Intn(3))*sets + uint32(rng.Intn(2*cfg.Assoc+1))*sets/2
						}
						what = fmt.Sprintf("access %#x", vpn)
						got, want = tl.Access(vpn), ref.Access(vpn)
					case op < 96:
						what = "flush-all"
						tl.FlushAll()
						ref.FlushAll()
					case op == 96:
						what = "save"
						saved = append(saved, encode(tl))
					case op == 97:
						what = "round-trip"
						tl.DecodeState(wire.NewReader(encode(tl)))
						ref.DecodeState(wire.NewReader(encode(ref)))
					default:
						if len(saved) == 0 {
							continue
						}
						what = "restore-older"
						b := saved[rng.Intn(len(saved))]
						tl.DecodeState(wire.NewReader(b))
						ref.DecodeState(wire.NewReader(b))
					}
					if got != want {
						t.Fatalf("step %d %s: cost %d, reference %d", step, what, got, want)
					}
					if tl.Stats() != ref.stats {
						t.Fatalf("step %d %s: stats %+v, reference %+v", step, what, tl.Stats(), ref.stats)
					}
					if !bytes.Equal(encode(tl), encode(ref)) {
						t.Fatalf("step %d %s: serialized state diverges from reference", step, what)
					}
				}
			})
		}
	}
}

// TestDecodeStateResetsRepeatMemo pins the memo reset on decode: after
// restoring a state without the memoized entry, a repeat of the last
// access must walk.
func TestDecodeStateResetsRepeatMemo(t *testing.T) {
	tl := New(DefaultITLB())
	empty := encode(tl)
	tl.Access(5) // memoizes vpn 5
	tl.DecodeState(wire.NewReader(empty))
	if c := tl.Access(5); c == 0 {
		t.Fatal("repeat access hit an entry the restored state does not hold")
	}
}
