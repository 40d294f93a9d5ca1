package indra

import (
	"reflect"
	"testing"

	"indra/internal/attack"
	"indra/internal/chip"
	"indra/internal/netsim"
	"indra/internal/workload"
)

// warmRun executes one bind service run, optionally through a warm
// booter, and returns the pieces the equivalence checks compare.
func warmRun(t *testing.T, w *WarmBooter) *ServiceRun {
	t.Helper()
	run, err := RunService("bind", Options{
		Requests: 3,
		Seed:     1,
		Attacks:  []attack.Kind{attack.StackSmash},
		Warm:     w,
	})
	if err != nil {
		t.Fatalf("RunService: %v", err)
	}
	return run
}

// TestWarmBootEquivalence is the core warm-start guarantee: a chip
// stamped out of the booter's post-boot snapshot produces output
// byte-identical to a cold boot, and repeat boots hit the cache.
func TestWarmBootEquivalence(t *testing.T) {
	cold := warmRun(t, nil)

	w := NewWarmBooter()
	first := warmRun(t, w)  // miss: primes the cache
	second := warmRun(t, w) // hit: stamped from the snapshot

	for name, run := range map[string]*ServiceRun{"miss": first, "hit": second} {
		if run.Summary != cold.Summary {
			t.Errorf("%s summary diverged: got %+v want %+v", name, run.Summary, cold.Summary)
		}
		if !reflect.DeepEqual(run.Port.Records(), cold.Port.Records()) {
			t.Errorf("%s request records diverged from cold boot", name)
		}
		if run.Result != cold.Result {
			t.Errorf("%s run result diverged: got %+v want %+v", name, run.Result, cold.Result)
		}
	}

	st := w.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Fallbacks != 0 {
		t.Errorf("stats = %+v, want {Hits:1 Misses:1 Fallbacks:0}", st)
	}
	if w.Entries() != 1 {
		t.Errorf("Entries() = %d, want 1", w.Entries())
	}
}

// TestWarmBootFallback corrupts every cached snapshot and checks the
// booter falls back to a cold boot — counted, correct, and re-primed.
func TestWarmBootFallback(t *testing.T) {
	cold := warmRun(t, nil)

	w := NewWarmBooter()
	warmRun(t, w) // prime
	if n := w.CorruptForTest(); n != 1 {
		t.Fatalf("CorruptForTest() = %d entries, want 1", n)
	}

	run := warmRun(t, w)
	if run.Summary != cold.Summary {
		t.Errorf("fallback summary diverged: got %+v want %+v", run.Summary, cold.Summary)
	}
	st := w.Stats()
	if st.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1", st.Fallbacks)
	}

	// The fallback re-primed the cache: the next boot is a hit again.
	warmRun(t, w)
	if st = w.Stats(); st.Hits != 1 {
		t.Errorf("post-fallback Hits = %d, want 1", st.Hits)
	}
}

// TestWarmBootKeyedByConfig checks distinct chip configs do not share
// warm images.
func TestWarmBootKeyedByConfig(t *testing.T) {
	w := NewWarmBooter()
	warmRun(t, w)

	cfg := DefaultChipConfig()
	cfg.FIFOEntries = 8
	if _, err := RunService("bind", Options{Chip: &cfg, Requests: 3, Seed: 1, Warm: w}); err != nil {
		t.Fatalf("RunService: %v", err)
	}
	if w.Entries() != 2 {
		t.Errorf("Entries() = %d, want 2 (configs must not share images)", w.Entries())
	}
	st := w.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses, 0 hits", st)
	}
}

// BootNode must stamp identical multi-service nodes out of one cached
// snapshot: the first boot is a miss, every further boot of the same
// platform is a hit, and warm nodes serve byte-identically to cold
// ones.
func TestWarmBootNode(t *testing.T) {
	names := workload.Names()
	cfg := chip.DefaultConfig()
	cfg.Resurrectees = len(names)

	serve := func(ch *chip.Chip) []netsim.Summary {
		t.Helper()
		for s, name := range names {
			params := workload.MustByName(name)
			ch.ActivePort(s).Enqueue(params.GenRequests(2, 1)...)
			if pc, ok := ch.Process(s).Prog.Symbols["main_loop"]; ok {
				ch.Wake(s, pc)
			}
		}
		if _, err := ch.Run(0); err != nil {
			t.Fatal(err)
		}
		out := make([]netsim.Summary, len(names))
		for s := range names {
			out[s] = ch.ActivePort(s).Summarize()
		}
		return out
	}

	w := NewWarmBooter()
	ch1, err := w.BootNode(names, 1.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := w.BootNode(names, 1.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", st)
	}

	cold := serve(ch1)
	warm := serve(ch2)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm node diverges from cold:\ncold %+v\nwarm %+v", cold, warm)
	}
	for s := range cold {
		if cold[s].Served != 2 {
			t.Fatalf("service %s served %d of 2", names[s], cold[s].Served)
		}
	}

	// Slot-count mismatches are rejected up front.
	bad := chip.DefaultConfig() // 1 resurrectee
	if _, err := w.BootNode(names, 1.0, bad); err == nil {
		t.Fatal("BootNode accepted more services than slots")
	}
	if _, err := w.BootNode(nil, 1.0, cfg); err == nil {
		t.Fatal("BootNode accepted an empty service list")
	}
}
