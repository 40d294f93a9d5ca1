package indra

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"indra/internal/chip"
	"indra/internal/snapshot"
)

// WarmBooter stamps service runs out of cached post-boot snapshots
// instead of cold-booting every chip. The first run of each platform
// (services × scale × full chip configuration) boots it cold, with the
// services launched on empty ports, and caches the snapshot; every
// later run restores that snapshot instead of booting and enqueues its
// own request streams. A restored chip is bit-identical to a
// cold-booted one (the resume-equivalence harness holds that
// property), so warm and cold runs produce byte-identical output.
//
// A snapshot that fails to load (version skew after a binary upgrade,
// a corrupted entry) is not an error: the booter falls back to a cold
// boot, recounts it in Stats().Fallbacks, and overwrites the entry
// with a fresh snapshot.
//
// Safe for concurrent use. Zero value is not usable; create with
// NewWarmBooter.
type WarmBooter struct {
	mu      sync.Mutex
	entries map[string][]byte // platform key -> post-boot snapshot

	hits, misses, fallbacks atomic.Uint64

	// OnHit, OnMiss and OnFallback, when non-nil, observe warm-boot
	// events (the serve layer wires its metrics counters here). Set
	// them before the first boot; they may be called concurrently.
	OnHit, OnMiss, OnFallback func()
}

// warmEntryCap bounds the cache. The experiment registry needs on the
// order of a hundred distinct platforms; when the cap is hit the cache
// resets wholesale (simple, predictable, and the next runs re-prime
// exactly what is still in use).
const warmEntryCap = 256

// NewWarmBooter creates an empty warm-boot cache.
func NewWarmBooter() *WarmBooter {
	return &WarmBooter{entries: make(map[string][]byte)}
}

// WarmBootStats counts cache outcomes.
type WarmBootStats struct {
	Hits      uint64 // runs stamped from a cached snapshot
	Misses    uint64 // first-run cold boots that primed the cache
	Fallbacks uint64 // cold boots forced by a snapshot load failure
}

// Stats snapshots the booter's counters.
func (w *WarmBooter) Stats() WarmBootStats {
	return WarmBootStats{
		Hits:      w.hits.Load(),
		Misses:    w.misses.Load(),
		Fallbacks: w.fallbacks.Load(),
	}
}

// Entries reports the cached platform count.
func (w *WarmBooter) Entries() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries)
}

// CorruptForTest truncates every cached snapshot, forcing the next
// warm boot of each cached platform down the load-failure fallback
// path (the strict decoder rejects short reads). Returns the number of
// entries corrupted. Test hook; production code never calls it.
func (w *WarmBooter) CorruptForTest() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	for k, blob := range w.entries {
		w.entries[k] = append([]byte(nil), blob[:len(blob)/2]...)
	}
	return len(w.entries)
}

// BootNode boots a chip serving names[i] on resurrectee slot i —
// restored from the cached post-boot snapshot when one exists,
// cold-booted (and the snapshot cached) otherwise. RunService boots its
// one service through it, and it is the fleet layer's node factory: a
// fleet of M identical nodes costs one cold boot plus M-1 warm stamps,
// and every proactive-rejuvenation reboot after the first cycle is a
// warm stamp too. The chip's ports are empty; the caller routes its
// request streams onto them.
func (w *WarmBooter) BootNode(names []string, scale float64, cfg chip.Config) (*chip.Chip, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("indra: BootNode needs at least one service")
	}
	if cfg.Resurrectees < len(names) {
		return nil, fmt.Errorf("indra: BootNode: %d services need %d resurrectee slots, config has %d",
			len(names), len(names), cfg.Resurrectees)
	}
	// The config's canonical wire encoding covers every
	// output-determining platform knob.
	key := fmt.Sprintf("%s|%g|%s", strings.Join(names, ","), scale, snapshot.ConfigBytes(cfg))
	w.mu.Lock()
	blob, ok := w.entries[key]
	w.mu.Unlock()

	if ok {
		ch, err := snapshot.Load(blob)
		good := err == nil
		for i := 0; good && i < len(names); i++ {
			good = ch.ActivePort(i) != nil
		}
		if good {
			w.hits.Add(1)
			if w.OnHit != nil {
				w.OnHit()
			}
			return ch, nil
		}
		// The fallback below overwrites the bad entry.
		w.fallbacks.Add(1)
		if w.OnFallback != nil {
			w.OnFallback()
		}
	} else {
		w.misses.Add(1)
		if w.OnMiss != nil {
			w.OnMiss()
		}
	}

	b, err := bootChip(cfg, names, scale)
	if err != nil {
		return nil, err
	}
	// The cache keeps its blobs for the process's life: clone each to
	// its length, since Save's buffer carries up to a quarter of slack
	// from its last growth.
	blob = bytes.Clone(snapshot.Save(b.ch))
	w.mu.Lock()
	if len(w.entries) >= warmEntryCap {
		w.entries = make(map[string][]byte)
	}
	w.entries[key] = blob
	w.mu.Unlock()
	return b.ch, nil
}
