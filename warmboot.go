package indra

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"indra/internal/asm"
	"indra/internal/chip"
	"indra/internal/netsim"
	"indra/internal/snapshot"
	"indra/internal/workload"
)

// WarmBooter stamps service runs out of cached post-boot snapshots
// instead of cold-booting every chip. The first run of each platform
// (service × scale × full chip configuration) assembles the program,
// boots a chip, launches the service on an empty port and caches the
// snapshot; every later run restores that snapshot — skipping program
// assembly and the boot sequence, the dominant costs of starting a
// cell — and enqueues its own request stream. A restored chip is
// bit-identical to a cold-booted one (the resume-equivalence harness
// holds that property), so warm and cold runs produce byte-identical
// output.
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
	entries map[string]warmEntry

	hits, misses, fallbacks atomic.Uint64

	// OnHit, OnMiss and OnFallback, when non-nil, observe warm-boot
	// events (the serve layer wires its metrics counters here). Set
	// them before the first boot; they may be called concurrently.
	OnHit, OnMiss, OnFallback func()
}

type warmEntry struct {
	progs []*asm.Program // one per launched slot
	blob  []byte
}

// warmEntryCap bounds the cache. The experiment registry needs on the
// order of a hundred distinct platforms; when the cap is hit the cache
// resets wholesale (simple, predictable, and the next runs re-prime
// exactly what is still in use).
const warmEntryCap = 256

// NewWarmBooter creates an empty warm-boot cache.
func NewWarmBooter() *WarmBooter {
	return &WarmBooter{entries: make(map[string]warmEntry)}
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
	for k, e := range w.entries {
		w.entries[k] = warmEntry{progs: e.progs, blob: append([]byte(nil), e.blob[:len(e.blob)/2]...)}
	}
	return len(w.entries)
}

// warmKey identifies a bootable platform. params is already scaled, so
// the scale knob rides separately; the config's canonical wire
// encoding covers every output-determining platform knob.
func warmKey(name string, scale float64, cfg chip.Config) string {
	return fmt.Sprintf("%s|%g|%s", name, scale, snapshot.ConfigBytes(cfg))
}

// boot returns a chip ready to serve the given workload — restored
// from the cached post-boot snapshot when one exists, cold-booted (and
// the snapshot cached) otherwise — plus the service's empty port and
// assembled program. The caller enqueues its request stream on the
// returned port.
func (w *WarmBooter) boot(params workload.Params, scale float64, cfg chip.Config) (*chip.Chip, *netsim.Port, *asm.Program, error) {
	key := warmKey(params.Name, scale, cfg)
	w.mu.Lock()
	e, ok := w.entries[key]
	w.mu.Unlock()

	if ok {
		ch, err := snapshot.Load(e.blob)
		if err == nil {
			if port := ch.ActivePort(0); port != nil {
				w.hits.Add(1)
				if w.OnHit != nil {
					w.OnHit()
				}
				return ch, port, e.progs[0], nil
			}
			err = fmt.Errorf("indra: warm snapshot for %s restored without an active port", params.Name)
		}
		_ = err // the fallback below overwrites the bad entry
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

	var prog *asm.Program
	if len(e.progs) > 0 {
		prog = e.progs[0]
	}
	if prog == nil {
		var err error
		prog, err = params.BuildProgram()
		if err != nil {
			return nil, nil, nil, err
		}
	}
	ch, err := chip.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	port := netsim.NewPort(nil)
	if _, err := ch.LaunchService(0, params.Name, prog, port); err != nil {
		return nil, nil, nil, err
	}

	// The cache keeps its blobs for the process's life: clone each to
	// its length, since Save's buffer carries up to a quarter of slack
	// from its last growth.
	blob := bytes.Clone(snapshot.Save(ch))
	w.mu.Lock()
	if len(w.entries) >= warmEntryCap {
		w.entries = make(map[string]warmEntry)
	}
	w.entries[key] = warmEntry{progs: []*asm.Program{prog}, blob: blob}
	w.mu.Unlock()
	return ch, port, prog, nil
}

// BootNode boots a multi-service chip — names[i] served on resurrectee
// slot i — restored from the cached post-boot snapshot when one exists,
// cold-booted (and the snapshot cached) otherwise. This is the fleet
// layer's node factory: a fleet of M identical nodes costs one cold
// boot plus M-1 warm stamps, and every proactive-rejuvenation reboot
// after the first cycle is a warm stamp too. The returned ports are
// empty; the caller routes its request streams onto them.
func (w *WarmBooter) BootNode(names []string, scale float64, cfg chip.Config) (*chip.Chip, []*netsim.Port, []*asm.Program, error) {
	if len(names) == 0 {
		return nil, nil, nil, fmt.Errorf("indra: BootNode needs at least one service")
	}
	if cfg.Resurrectees < len(names) {
		return nil, nil, nil, fmt.Errorf("indra: BootNode: %d services need %d resurrectee slots, config has %d",
			len(names), len(names), cfg.Resurrectees)
	}
	key := fmt.Sprintf("node:%s|%g|%s", strings.Join(names, ","), scale, snapshot.ConfigBytes(cfg))
	w.mu.Lock()
	e, ok := w.entries[key]
	w.mu.Unlock()

	if ok {
		ch, err := snapshot.Load(e.blob)
		if err == nil {
			ports := make([]*netsim.Port, len(names))
			good := true
			for i := range names {
				if ports[i] = ch.ActivePort(i); ports[i] == nil {
					good = false
					break
				}
			}
			if good {
				w.hits.Add(1)
				if w.OnHit != nil {
					w.OnHit()
				}
				return ch, ports, e.progs, nil
			}
			err = fmt.Errorf("indra: warm node snapshot restored without all %d ports", len(names))
		}
		_ = err // the fallback below overwrites the bad entry
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

	progs := e.progs
	if len(progs) != len(names) {
		progs = make([]*asm.Program, len(names))
		for i, name := range names {
			params := workload.MustByName(name)
			if scale != 1.0 {
				params = params.Scale(scale)
			}
			p, err := params.BuildProgram()
			if err != nil {
				return nil, nil, nil, err
			}
			progs[i] = p
		}
	}
	ch, err := chip.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	ports := make([]*netsim.Port, len(names))
	for i, name := range names {
		ports[i] = netsim.NewPort(nil)
		if _, err := ch.LaunchService(i, name, progs[i], ports[i]); err != nil {
			return nil, nil, nil, err
		}
	}

	blob := bytes.Clone(snapshot.Save(ch))
	w.mu.Lock()
	if len(w.entries) >= warmEntryCap {
		w.entries = make(map[string]warmEntry)
	}
	w.entries[key] = warmEntry{progs: progs, blob: blob}
	w.mu.Unlock()
	return ch, ports, progs, nil
}
