package snapshot

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"indra/internal/attack"
	"indra/internal/chip"
	"indra/internal/faultinject"
	"indra/internal/netsim"
	"indra/internal/workload"
)

// launch boots a chip with the named service and seed-1 request
// stream, optionally interleaving attacks after the legit requests.
func launch(t *testing.T, cfg chip.Config, service string, requests int, attacks ...attack.Kind) *chip.Chip {
	t.Helper()
	params := workload.MustByName(service)
	prog, err := params.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	reqs := params.GenRequests(requests, 1)
	for _, kind := range attacks {
		seq, err := attack.Sequence(kind, prog)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, seq...)
	}
	ch, err := chip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.LaunchService(0, service, prog, netsim.NewPort(reqs)); err != nil {
		t.Fatal(err)
	}
	return ch
}

// runTo advances the chip by n instructions (or to halt, whichever
// comes first).
func runTo(t *testing.T, ch *chip.Chip, n uint64) {
	t.Helper()
	if _, err := ch.Run(n); err != nil && !errors.Is(err, chip.ErrInstrLimit) {
		t.Fatal(err)
	}
}

// roundTrip asserts the canonical-form property: Save(Load(Save(c)))
// must reproduce Save(c) byte for byte. Any unsorted map, forgotten
// field or decode-time mutation breaks it.
func roundTrip(t *testing.T, ch *chip.Chip) {
	t.Helper()
	blob := Save(ch)
	restored, err := Load(blob)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	blob2 := Save(restored)
	if !bytes.Equal(blob, blob2) {
		i := 0
		for i < len(blob) && i < len(blob2) && blob[i] == blob2[i] {
			i++
		}
		t.Fatalf("re-encode diverges: lengths %d vs %d, first differing byte at offset %d", len(blob), len(blob2), i)
	}
}

func TestRoundTripColdBoot(t *testing.T) {
	// Zero processes: a chip that booted but launched nothing.
	ch, err := chip.New(chip.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, ch)
}

func TestRoundTripSchemes(t *testing.T) {
	for _, sk := range []chip.SchemeKind{
		chip.SchemeNone, chip.SchemeDelta, chip.SchemeSoftwarePageCopy,
		chip.SchemeHWVirtualCopy, chip.SchemeUpdateLog,
	} {
		t.Run(sk.String(), func(t *testing.T) {
			cfg := chip.DefaultConfig()
			cfg.Scheme = sk
			ch := launch(t, cfg, "httpd", 2)
			for _, point := range []uint64{1, 777, 20_000} {
				runTo(t, ch, point)
				roundTrip(t, ch)
			}
		})
	}
}

func TestRoundTripMidRollback(t *testing.T) {
	// A crash barrage with deferred (lazy) rollback leaves the delta
	// engine holding pending-rollback lines and backup pages between
	// requests — snapshot densely so several land in that window.
	ch := launch(t, chip.DefaultConfig(), "bind", 3, attack.DoSCrash, attack.StackSmash)
	for i := 0; i < 12; i++ {
		runTo(t, ch, 7_000)
		roundTrip(t, ch)
	}
}

func TestRoundTripTinyFIFO(t *testing.T) {
	// A 4-entry FIFO saturates constantly, exercising full-queue
	// encode (and, with FIFODrop, the drop/degradation counters).
	for _, policy := range []chip.FIFOPolicy{chip.FIFOStall, chip.FIFODrop} {
		cfg := chip.DefaultConfig()
		cfg.FIFOEntries = 4
		cfg.FIFOPolicy = policy
		cfg.FIFODropLimit = 1 << 40 // keep the slot undegraded
		ch := launch(t, cfg, "ftpd", 2)
		for i := 0; i < 4; i++ {
			runTo(t, ch, 9_000)
			roundTrip(t, ch)
		}
	}
}

func TestRoundTripFaultsAndHeartbeat(t *testing.T) {
	cfg := chip.DefaultConfig()
	cfg.HeartbeatInterval = 50_000
	cfg.HeartbeatMissLimit = 4
	cfg.Faults = []faultinject.Plan{
		{Site: faultinject.SiteFIFOCorrupt, Rate: 0.01, Seed: 7},
		{Site: faultinject.SiteFIFODrop, Rate: 0.005, Seed: 11, From: 10_000},
	}
	ch := launch(t, cfg, "httpd", 2)
	for i := 0; i < 4; i++ {
		runTo(t, ch, 15_000)
		roundTrip(t, ch)
	}
}

func TestRoundTripRebootRecovery(t *testing.T) {
	cfg := chip.DefaultConfig()
	cfg.Scheme = chip.SchemeNone
	cfg.RebootRecovery = true
	ch := launch(t, cfg, "bind", 2, attack.StackSmash)
	for i := 0; i < 6; i++ {
		runTo(t, ch, 8_000)
		roundTrip(t, ch)
	}
}

func TestRoundTripMultiSlot(t *testing.T) {
	cfg := chip.DefaultConfig()
	cfg.Resurrectees = 2
	cfg.Resurrectors = 2
	ch, err := chip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for slot, service := range []string{"imap", "httpd"} {
		params := workload.MustByName(service)
		prog, err := params.BuildProgram()
		if err != nil {
			t.Fatal(err)
		}
		port := netsim.NewPort(params.GenRequests(2, uint32(1+slot)))
		if _, err := ch.LaunchService(slot, service, prog, port); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		runTo(t, ch, 25_000)
		roundTrip(t, ch)
	}
}

func TestRoundTripHalted(t *testing.T) {
	ch := launch(t, chip.DefaultConfig(), "nfs", 2)
	if _, err := ch.Run(0); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, ch)
}

// TestRestoredChipFinishesIdentically revives a mid-run chip and
// checks the revived run's summary matches the uninterrupted one.
func TestRestoredChipFinishesIdentically(t *testing.T) {
	base := launch(t, chip.DefaultConfig(), "httpd", 3)
	if _, err := base.Run(0); err != nil {
		t.Fatal(err)
	}
	want := base.ActivePort(0).Summarize()

	ch := launch(t, chip.DefaultConfig(), "httpd", 3)
	runTo(t, ch, 30_000)
	restored, err := Load(Save(ch))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := restored.ActivePort(0).Summarize(); got != want {
		t.Errorf("revived run summary %+v != uninterrupted %+v", got, want)
	}
}

// TestSnapshotStoresEachImageOnce pins where a snapshot keeps each
// service's program image: the text twice (the kernel's process record
// and the fs file bin/<name>) and the data once (the process record).
// Memory pages and disk sectors are framed per page and per sector, so
// a whole image never matches inside them. The inputs are post-boot
// chips with one and two services, and a bind chip after two
// reboot-recovery restarts, whose replaced processes must be gone.
func TestSnapshotStoresEachImageOnce(t *testing.T) {
	boot := func(cfg chip.Config, services ...string) *chip.Chip {
		cfg.Resurrectees = len(services)
		ch, err := chip.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for slot, name := range services {
			prog, err := workload.MustByName(name).BuildProgram()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ch.LaunchService(slot, name, prog, netsim.NewPort(nil)); err != nil {
				t.Fatal(err)
			}
		}
		return ch
	}
	rebooted := func() *chip.Chip {
		cfg := chip.DefaultConfig()
		cfg.Scheme = chip.SchemeNone
		cfg.RebootRecovery = true
		ch := boot(cfg, "bind")
		smash, err := attack.NewStackSmash(ch.Process(0).Prog)
		if err != nil {
			t.Fatal(err)
		}
		// A smash before each of three requests: the first and third
		// smash reboot, and each reboot drops the next two requests.
		for _, rq := range workload.MustByName("bind").GenRequests(3, 1) {
			a := smash
			a.Payload = append([]byte(nil), smash.Payload...)
			ch.ActivePort(0).Enqueue(a, rq)
		}
		runTo(t, ch, 0)
		if pids := ch.Kernel().PIDs(); len(pids) == 0 || pids[len(pids)-1] != 102 {
			t.Fatalf("reboot chip ends with pids %v, want 102 (two reboots) last", pids)
		}
		return ch
	}
	for name, ch := range map[string]*chip.Chip{
		"httpd":         boot(chip.DefaultConfig(), "httpd"),
		"imap+httpd":    boot(chip.DefaultConfig(), "imap", "httpd"),
		"bind rebooted": rebooted(),
	} {
		blob := Save(ch)
		for slot := 0; slot < ch.Config().Resurrectees; slot++ {
			prog := ch.Process(slot).Prog
			if n := bytes.Count(blob, prog.Text); n != 2 {
				t.Errorf("%s: slot %d text stored %d times, want 2", name, slot, n)
			}
			if n := bytes.Count(blob, prog.Data); n != 1 {
				t.Errorf("%s: slot %d data stored %d times, want 1", name, slot, n)
			}
		}
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	ch, err := chip.New(chip.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob := Save(ch)
	blob[0] ^= 0xFF
	if _, err := Load(blob); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("Load with bad magic: %v", err)
	}
}

func TestLoadRejectsVersionSkew(t *testing.T) {
	ch, err := chip.New(chip.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob := Save(ch)
	blob[8]++ // little-endian version field follows the 8-byte magic
	if _, err := Load(blob); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("Load with skewed version: %v", err)
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	ch := launch(t, chip.DefaultConfig(), "bind", 1)
	runTo(t, ch, 5_000)
	blob := Save(ch)
	for _, cut := range []int{0, 4, len(blob) / 4, len(blob) / 2, len(blob) - 1} {
		if _, err := Load(blob[:cut]); err == nil {
			t.Errorf("Load accepted truncation to %d bytes", cut)
		}
	}
}

// TestLoadSurvivesBitFlips is the deterministic companion to
// FuzzSnapshotDecode: seeded random bit-flips over a real snapshot
// (config and payload alike) must yield an error or a chip — never a
// panic. The flip count is small enough to run on every test
// invocation, and the fixed seed makes failures reproducible.
func TestLoadSurvivesBitFlips(t *testing.T) {
	ch := launch(t, chip.DefaultConfig(), "bind", 1)
	runTo(t, ch, 5_000)
	valid := Save(ch)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		blob := append([]byte(nil), valid...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			blob[rng.Intn(len(blob))] ^= byte(1 << rng.Intn(8))
		}
		c, err := Load(blob)
		if err == nil && c == nil {
			t.Fatalf("iteration %d: Load returned neither chip nor error", i)
		}
	}
}

func TestLoadRejectsTrailingBytes(t *testing.T) {
	ch, err := chip.New(chip.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob := append(Save(ch), 0xAA)
	if _, err := Load(blob); err == nil {
		t.Fatal("Load accepted trailing bytes")
	}
}

// A 140 KB snapshot whose header claims the decoder's ceiling of 1 GiB
// of memory, over the payload of a default 64 MB chip, must fail
// without paying for the claim: memory is sparse, so the rebuilt chip
// allocates only its page table before the payload is refused.
func TestLoadHostileMemorySize(t *testing.T) {
	ch, err := chip.New(chip.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ch.Config()
	blob := Save(ch)
	head := len(magic) + 4 // magic, version
	orig := ConfigBytes(cfg)
	if !bytes.Equal(blob[head:head+len(orig)], orig) {
		t.Fatal("the config does not follow the magic and version")
	}
	cfg.PhysMemBytes = 1 << 30
	hostile := append(append(bytes.Clone(blob[:head]), ConfigBytes(cfg)...), blob[head+len(orig):]...)

	const limit = 16 << 20
	var before, loaded, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := Load(hostile)
	runtime.ReadMemStats(&loaded)
	if err == nil || c != nil {
		t.Fatal("Load accepted a header that disagrees with its memory image")
	}
	if n := loaded.TotalAlloc - before.TotalAlloc; n >= limit {
		t.Errorf("the failed Load of a %d-byte blob allocated %d bytes", len(hostile), n)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := int64(after.HeapAlloc) - int64(before.HeapAlloc); n >= limit {
		t.Errorf("the failed Load left %d bytes of live heap", n)
	}
	runtime.KeepAlive(hostile)
}
