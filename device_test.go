package indra

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"indra/internal/chip"
	"indra/internal/device"
	"indra/internal/isa"
	"indra/internal/netsim"
	"indra/internal/workload"
)

// Device-path regression suite: the device registry must be
// observationally invisible on every pre-existing golden cell, the
// block engine must stay coherent when NIC DMA rewrites predecoded
// code, and mid-DMA / mid-NIC-receive snapshots must round-trip.

// deviceObserver is a RunLoop that checks every chip it drives: the
// registry holds exactly disk0 then nic0, and a NIC the host queued no
// frames on before the run ends it with every counter still zero (no
// delivery, drop, rejection or stall). Safe for concurrent use
// (parallel cells share it).
type deviceObserver struct {
	mu   sync.Mutex
	runs int
	errs []string
}

func (d *deviceObserver) runLoop(ch *chip.Chip, maxInstr uint64) (*chip.Chip, chip.RunResult, error) {
	var names []string
	for _, dev := range ch.Devices().Devices() {
		names = append(names, dev.Name())
	}
	idle := ch.NIC().PendingFrames() == 0 && ch.NIC().Stats() == (device.NICStats{})
	res, err := ch.Run(maxInstr)

	d.mu.Lock()
	defer d.mu.Unlock()
	d.runs++
	if got := strings.Join(names, ","); got != "disk0,nic0" {
		d.errs = append(d.errs, fmt.Sprintf("registry holds [%s], want [disk0,nic0]", got))
	}
	if st := ch.NIC().Stats(); idle && st != (device.NICStats{}) {
		d.errs = append(d.errs, fmt.Sprintf("NIC with no queued frames acted during the run: %+v", st))
	}
	return ch, res, err
}

// TestDeviceRegistryDifferential replays every golden experiment cell
// through deviceObserver and requires byte-identical output to the
// committed goldens, at Workers 1 and 8. The goldens above faultsweep's
// DeviceSweep section are the output of the pre-registry, disk-only
// device path; the registry keeps them because the NIC it adds stays
// inert unless a cell queues frames on it, which only DeviceSweep does.
func TestDeviceRegistryDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("observed golden replay is not short")
	}
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".golden"))
			if err != nil {
				t.Fatalf("missing golden (generate with TestGoldenDeterminism -update-golden): %v", err)
			}
			if tc.name == "faultsweep" && !strings.Contains(string(want), "\nDeviceSweep:") {
				t.Fatal("faultsweep golden lacks a DeviceSweep section — regenerate it")
			}
			for _, workers := range []int{1, 8} {
				var obs deviceObserver
				o := goldenOpts
				o.Workers = workers
				o.RunLoop = obs.runLoop
				got, err := tc.run(o)
				if err != nil {
					t.Fatalf("workers=%d: observed run: %v", workers, err)
				}
				if got != string(want) {
					t.Errorf("workers=%d: observed output diverges from golden %s.golden\n--- observed ---\n%s--- golden ---\n%s",
						workers, tc.name, got, want)
				}
				for _, e := range obs.errs {
					t.Errorf("workers=%d: %s", workers, e)
				}
				// table4 is a static table (no simulation); every other
				// case runs at least one chip.
				if tc.name != "table4" && obs.runs == 0 {
					t.Errorf("workers=%d: no chip ran through the observer", workers)
				}
			}
		})
	}
}

// nicDMAWord programs the chip's NIC to DMA one 4-byte frame over the
// physical address backing va in slot 0's address space, then delivers
// it by running the chip (the first device poll, ≤64 instructions in).
func nicDMAWord(t *testing.T, ch *chip.Chip, va uint32, word uint32) {
	t.Helper()
	const ringPA = 0x03FF_E000
	pa, ok := ch.TranslateVA(0, va)
	if !ok {
		t.Fatalf("va %#x unmapped", va)
	}
	desc := make([]byte, device.NICDescBytes)
	binary.LittleEndian.PutUint32(desc[0:], pa)
	binary.LittleEndian.PutUint16(desc[4:], 4)
	binary.LittleEndian.PutUint16(desc[6:], device.NICDescReady)
	ch.HostDMAWrite(ringPA, desc)
	reg := ch.Devices()
	for _, w := range []struct{ off, val uint32 }{
		{device.NICRegRingBase, ringPA},
		{device.NICRegRingLen, 1},
		{device.NICRegDMACore, 1},
		{device.NICRegCtrl, device.NICCtrlEnable},
	} {
		if err := reg.Write32(0, device.NICMMIOBase+w.off, w.val); err != nil {
			t.Fatalf("nic setup: %v", err)
		}
	}
	frame := make([]byte, 4)
	binary.LittleEndian.PutUint32(frame, word)
	if !ch.NIC().QueueFrame(frame) {
		t.Fatal("frame refused")
	}
}

// basicRequests builds n plain common-path requests (handler HBasic).
func basicRequests(n int) []netsim.Request {
	reqs := make([]netsim.Request, n)
	for i := range reqs {
		p := make([]byte, workload.OffBody+32)
		p[workload.OffOpcode] = workload.HBasic
		p[workload.OffSeed] = byte(i + 1)
		reqs[i] = netsim.Request{Payload: p, Label: "legit"}
	}
	return reqs
}

// runNICDMAOverText drives one engine through the scenario: warm the
// decoded pages of the common-path handler, DMA a behavior-changing
// instruction over the handler's (already predecoded) entry, and run a
// fixed further budget. Returns the final chip and accumulated result.
func runNICDMAOverText(t *testing.T, scalar bool) (*chip.Chip, chip.RunResult) {
	t.Helper()
	cfg := chip.DefaultConfig()
	cfg.ScalarDispatch = scalar
	ch, err := chip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := workload.MustByName("httpd")
	prog, err := params.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	port := netsim.NewPort(basicRequests(6))
	if _, err := ch.LaunchService(0, "httpd", prog, port); err != nil {
		t.Fatal(err)
	}

	// Warm until the handler has served twice — its code is then
	// decoded and classified on the predecode pages. Chunked runs keep
	// the stop boundary instret-exact and identical for both engines.
	var total chip.RunResult
	served := func() int {
		n := 0
		for _, rec := range port.Records() {
			if rec.Outcome == netsim.Served {
				n++
			}
		}
		return n
	}
	for steps := 0; served() < 2; steps++ {
		if steps > 50 {
			t.Fatal("handler never served twice during warmup")
		}
		res, err := ch.Run(20_000)
		total.Instret += res.Instret
		total.Cycles = res.Cycles
		total.Violations += res.Violations
		if err == nil {
			t.Fatal("service halted during warmup")
		}
		if !errors.Is(err, chip.ErrInstrLimit) {
			t.Fatalf("warmup: %v", err)
		}
	}

	// DMA `jal r0, +8` over h_basic's first instruction: the stale
	// predecoded block would keep executing the old entry, the fresh
	// one skips an instruction — any missed flush diverges the
	// engines' architectural state.
	entry, ok := prog.Symbols["h_basic"]
	if !ok {
		t.Fatal("victim image lacks h_basic")
	}
	nicDMAWord(t, ch, entry, isa.Encode(isa.Inst{Op: isa.OpJal, Rd: isa.R0, Imm: 8}))

	res, err := ch.Run(300_000)
	total.Instret += res.Instret
	total.Cycles = res.Cycles
	total.Violations += res.Violations
	if err != nil && !errors.Is(err, chip.ErrInstrLimit) {
		t.Fatalf("post-DMA run: %v", err)
	}
	return ch, total
}

// TestBlockEngineNICDMAFlush pins the write-version recheck against
// the one store path that bypasses the core entirely: a NIC DMA
// landing inside already-predecoded text must flush the block, so the
// block engine and the scalar engine reach identical architectural
// state at the same instruction boundary — a stale block would keep
// executing the overwritten entry and diverge the cycle count and
// every store thereafter. (Full snapshot blobs are not compared: the
// engines legitimately differ in per-fetch bookkeeping counters.)
func TestBlockEngineNICDMAFlush(t *testing.T) {
	chScalar, resScalar := runNICDMAOverText(t, true)
	chBlock, resBlock := runNICDMAOverText(t, false)
	if resScalar != resBlock {
		t.Fatalf("engine results diverge after DMA over hot text\nscalar: %+v\nblock:  %+v", resScalar, resBlock)
	}
	if s, b := chScalar.MemDigest(), chBlock.MemDigest(); s != b {
		t.Errorf("memory digests diverge after DMA over predecoded text: scalar %#x, block %#x", s, b)
	}
	if s, b := chScalar.MemVersionDigest(), chBlock.MemVersionDigest(); s != b {
		t.Errorf("write-version digests diverge after DMA over predecoded text: scalar %#x, block %#x", s, b)
	}
}

// deviceResumePoints include 32 — before the first device poll at 64,
// when the queued NIC frames and the programmed ring are pending
// mid-receive — and later points spanning delivery, the trigger
// request, and detection.
var deviceResumePoints = []uint64{32, 1_000, 10_000, 45_000}

// TestResumeMidDeviceActivity runs every device-attack scenario twice
// — uninterrupted, and segmented through Save→Load at points that land
// mid-NIC-receive and mid-disk-activity — and requires the identical
// DeviceRow. Divergences dump the last snapshot blob for post-mortem
// (RESUME_EQUIV_ARTIFACT_DIR, as in the resume-equivalence suite).
func TestResumeMidDeviceActivity(t *testing.T) {
	if testing.Short() {
		t.Skip("segmented device replay is not short")
	}
	for _, sc := range DeviceScenarios {
		for _, rate := range []float64{0, 1e-2} {
			name := fmt.Sprintf("%s/%.0e", sc, rate)
			t.Run(name, func(t *testing.T) {
				seedBase := uint64(1)<<32 | uint64(0x90)<<16
				o := goldenOpts
				o.Workers = 1
				base, err := runDeviceCell(o.fill(), sc, rate, seedBase)
				if err != nil {
					t.Fatalf("uninterrupted cell: %v", err)
				}
				if !base.Detected {
					t.Fatalf("uninterrupted cell missed its attack: %+v", base)
				}

				var tr segTracker
				o.RunLoop = segmentedRunLoop(deviceResumePoints, &tr)
				seg, err := runDeviceCell(o.fill(), sc, rate, seedBase)
				if err != nil {
					t.Fatalf("segmented cell: %v", err)
				}
				if tr.max == 0 {
					t.Fatal("no restores happened — points never landed")
				}
				if seg != base {
					t.Errorf("segmented device cell diverges\nsegmented:     %+v\nuninterrupted: %+v", seg, base)
					tr.dumpArtifact(t, "device-"+sc, 1)
				}
			})
		}
	}
}
