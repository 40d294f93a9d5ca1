package device

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"indra/internal/mem"
	"indra/internal/snapshot/wire"
	"indra/internal/watchdog"
)

// Test topology, matching testDisk: core 0 privileged, core 1 owns
// [0x10000, 0x80000) of a 1 MB memory. The NIC's MMIO window sits far
// outside any partition, so only core 0 can program it.
func testNIC() (*NIC, *mem.Physical, *watchdog.Watchdog) {
	phys := mem.NewPhysical(1 << 20)
	wd := watchdog.New(watchdog.Config{
		Privileged: watchdog.CoreMask(0),
		Partitions: []watchdog.Partition{
			{Lo: 0x10000, Hi: 0x80000, Cores: watchdog.CoreMask(1)},
		},
	})
	return NewNIC(phys, wd, nil), phys, wd
}

// program writes the NIC registers as core 0, failing the test on any
// refusal.
func program(t *testing.T, nic *NIC, ringBase, ringLen, dmaCore uint32) {
	t.Helper()
	for _, w := range []struct{ off, val uint32 }{
		{NICRegRingBase, ringBase},
		{NICRegRingLen, ringLen},
		{NICRegDMACore, dmaCore},
		{NICRegCtrl, NICCtrlEnable},
	} {
		if err := nic.WriteMMIO(0, NICMMIOBase+w.off, w.val); err != nil {
			t.Fatalf("program reg %#x: %v", w.off, err)
		}
	}
}

// writeDesc publishes one descriptor at slot i of a ring at ringPA.
func writeDesc(phys *mem.Physical, ringPA uint32, i int, bufPA uint32, capacity, flags uint16) {
	var d [NICDescBytes]byte
	binary.LittleEndian.PutUint32(d[0:], bufPA)
	binary.LittleEndian.PutUint16(d[4:], capacity)
	binary.LittleEndian.PutUint16(d[6:], flags)
	phys.WriteBytes(ringPA+uint32(i)*NICDescBytes, d[:])
}

func readDesc(phys *mem.Physical, ringPA uint32, i int) (length, flags uint16) {
	var d [NICDescBytes]byte
	phys.ReadBytes(ringPA+uint32(i)*NICDescBytes, d[:])
	return binary.LittleEndian.Uint16(d[4:]), binary.LittleEndian.Uint16(d[6:])
}

// TestRegistryMMIODispatch checks the NIC's register access: the
// watchdog check runs as the accessing core before any register is
// decoded.
func TestRegistryMMIODispatch(t *testing.T) {
	nic, _, wd := testNIC()

	// Privileged core: full register access.
	if err := nic.WriteMMIO(0, NICMMIOBase+NICRegRingLen, 4); err != nil {
		t.Fatalf("privileged write: %v", err)
	}
	v, err := nic.ReadMMIO(0, NICMMIOBase+NICRegRingLen)
	if err != nil || v != 4 {
		t.Fatalf("read back %d, %v", v, err)
	}

	// Resurrectee core reaching for the device window: watchdog
	// violation before the register is touched.
	if _, err := nic.ReadMMIO(1, NICMMIOBase+NICRegCtrl); err == nil {
		t.Fatal("unprivileged MMIO read allowed")
	}
	if err := nic.WriteMMIO(1, NICMMIOBase+NICRegCtrl, 1); err == nil {
		t.Fatal("unprivileged MMIO write allowed")
	}
	if wd.Violations() == 0 {
		t.Fatal("MMIO breach not recorded as a watchdog violation")
	}
	if v, _ := nic.ReadMMIO(0, NICMMIOBase+NICRegCtrl); v != 0 {
		t.Fatal("refused write still enabled the engine")
	}

	// Addresses outside the register window are errors, not panics.
	if _, err := nic.ReadMMIO(0, 0xE000_0000); err == nil {
		t.Fatal("read outside the register window succeeded")
	}
	if err := nic.WriteMMIO(0, NICMMIOBase+NICMMIOBytes, 1); err == nil {
		t.Fatal("write outside the register window succeeded")
	}
	// Status register is read-only.
	if err := nic.WriteMMIO(0, NICMMIOBase+NICRegStatus, 1); err == nil {
		t.Fatal("write to read-only status register succeeded")
	}
}

// platformDevices builds the platform's disk and NIC over one memory
// and watchdog (testNIC's topology).
func platformDevices() (*Disk, *NIC) {
	nic, phys, wd := testNIC()
	return NewDisk(phys, wd, nil), nic
}

// decodeSection decodes b as a device section into a fresh platform,
// turning a panic into a test failure, and returns the reader's error.
func decodeSection(t *testing.T, b []byte) error {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("device section decode panicked: %v", p)
		}
	}()
	d, n := platformDevices()
	r := wire.NewReader(b)
	DecodeSection(r, d, n)
	return r.Err()
}

// TestRegistryRejectsBadWiring checks the snapshot's device section:
// the platform's own section round-trips, and a section wired any
// other way (device count, order, names, truncation) is a clean decode
// error.
func TestRegistryRejectsBadWiring(t *testing.T) {
	d, n := platformDevices()
	d.HostWriteSector(3, []byte("sector three"))
	n.QueueFrame([]byte("pending"))
	if err := n.WriteMMIO(0, NICMMIOBase+NICRegRingLen, 2); err != nil {
		t.Fatal(err)
	}
	var good wire.Writer
	EncodeSection(&good, d, n)

	// The platform's own section round-trips.
	d2, n2 := platformDevices()
	r := wire.NewReader(good.Bytes())
	DecodeSection(r, d2, n2)
	if err := r.Close(); err != nil {
		t.Fatalf("own section: %v", err)
	}
	var again wire.Writer
	EncodeSection(&again, d2, n2)
	if !bytes.Equal(again.Bytes(), good.Bytes()) {
		t.Fatal("device section changed across a round trip")
	}

	// section writes a count, then each (name, device state) pair.
	section := func(count int, devs ...string) []byte {
		var w wire.Writer
		w.Len(count)
		for _, name := range devs {
			w.String(name)
			if strings.HasPrefix(name, "disk") {
				d.EncodeState(&w)
			} else {
				n.EncodeState(&w)
			}
		}
		return w.Bytes()
	}
	for _, tc := range []struct {
		name string
		b    []byte
		want string
	}{
		{"one device", section(1, "disk0"), "1 devices"},
		{"three devices", section(3, "disk0", "nic0", "nic1"), "3 devices"},
		{"nic0 before disk0", section(2, "nic0", "disk0"), `"nic0"`},
		{"unknown name", section(2, "disk0", "nic9"), `"nic9"`},
	} {
		err := decodeSection(t, tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
	for cut := 0; cut < len(good.Bytes()); cut++ {
		if decodeSection(t, good.Bytes()[:cut]) == nil {
			t.Fatalf("section truncated to %d of %d bytes decoded", cut, len(good.Bytes()))
		}
	}
}

func TestNICDeliversFrame(t *testing.T) {
	nic, phys, _ := testNIC()
	const ringPA, bufPA = 0x20000, 0x30000
	writeDesc(phys, ringPA, 0, bufPA, 64, NICDescReady)
	writeDesc(phys, ringPA, 1, bufPA+64, 64, NICDescReady)
	program(t, nic, ringPA, 2, 1)

	frame := []byte("GET / HTTP/1.0\r\n")
	if !nic.QueueFrame(frame) {
		t.Fatal("frame refused")
	}
	if !nic.PollPending() {
		t.Fatal("pending frame but PollPending false")
	}
	verBefore := phys.PageVersion(bufPA)
	nic.Poll(1)

	got := make([]byte, len(frame))
	phys.ReadBytes(bufPA, got)
	if string(got) != string(frame) {
		t.Fatalf("delivered %q", got)
	}
	if length, flags := readDesc(phys, ringPA, 0); length != uint16(len(frame)) || flags != NICDescDone {
		t.Fatalf("descriptor write-back length=%d flags=%#x", length, flags)
	}
	if phys.PageVersion(bufPA) == verBefore {
		t.Fatal("DMA fill did not bump the page write version")
	}
	if s := nic.Stats(); s.Frames != 1 || s.Bytes != uint64(len(frame)) {
		t.Fatalf("stats %+v", s)
	}
	if v, _ := nic.ReadMMIO(0, NICMMIOBase+NICRegHead); v != 1 {
		t.Fatalf("head %d after delivery", v)
	}
	if nic.PollPending() {
		t.Fatal("queue drained but PollPending true")
	}

	// Not-ready descriptor: the frame waits (stall, no loss).
	writeDesc(phys, ringPA, 1, bufPA+64, 64, 0)
	nic.QueueFrame(frame)
	nic.Poll(2)
	if s := nic.Stats(); s.Stalls != 1 || s.Frames != 1 {
		t.Fatalf("stall handling: %+v", s)
	}
	if nic.PendingFrames() != 1 {
		t.Fatal("stalled frame was consumed")
	}
}

func TestNICOverrunRejected(t *testing.T) {
	nic, phys, _ := testNIC()
	const ringPA, bufPA = 0x20000, 0x30000
	writeDesc(phys, ringPA, 0, bufPA, 8, NICDescReady)
	program(t, nic, ringPA, 1, 1)
	nic.QueueFrame(make([]byte, 64)) // 64 > capacity 8
	nic.Poll(1)
	if s := nic.Stats(); s.Rejected != 1 || s.Frames != 0 {
		t.Fatalf("overrun stats %+v", s)
	}
	if _, flags := readDesc(phys, ringPA, 0); flags != NICDescDone|NICDescError {
		t.Fatalf("overrun flags %#x", flags)
	}
	if phys.Read32(bufPA) != 0 {
		t.Fatal("overrun frame partially delivered")
	}
}

func TestNICDMAInsulation(t *testing.T) {
	nic, phys, _ := testNIC()
	// Buffer aimed at the resurrector's memory: refused, engine lives.
	const ringPA = 0x20000
	writeDesc(phys, ringPA, 0, 0x1000, 64, NICDescReady)
	program(t, nic, ringPA, 1, 1)
	nic.QueueFrame(make([]byte, 16))
	nic.Poll(1)
	if s := nic.Stats(); s.Rejected != 1 {
		t.Fatalf("overreach stats %+v", s)
	}
	if phys.Read32(0x1000) != 0 {
		t.Fatal("DMA breached the resurrector's memory")
	}
	if _, flags := readDesc(phys, ringPA, 0); flags != NICDescDone|NICDescError {
		t.Fatalf("overreach flags %#x", flags)
	}

	// Ring itself outside the DMA principal's partition: engine killed.
	nic.Reset()
	program(t, nic, 0x1000, 1, 1)
	nic.QueueFrame(make([]byte, 16))
	nic.Poll(2)
	if s := nic.Stats(); s.Rejected != 1 {
		t.Fatalf("rogue-ring stats %+v", s)
	}
	if v, _ := nic.ReadMMIO(0, NICMMIOBase+NICRegCtrl); v != 0 {
		t.Fatal("engine still enabled after rogue ring fetch")
	}

	// Ring beyond physical memory with a privileged DMA principal:
	// refused by the bounds check, not a slice panic.
	nic.Reset()
	program(t, nic, 0xFFFF_FFF0, 1, 0)
	nic.QueueFrame(make([]byte, 16))
	nic.Poll(3)
	if s := nic.Stats(); s.Rejected != 1 {
		t.Fatalf("out-of-range ring stats %+v", s)
	}
}

func TestNICSnapshotRoundTrip(t *testing.T) {
	nic, phys, wd := testNIC()
	const ringPA = 0x20000
	writeDesc(phys, ringPA, 0, 0x30000, 64, NICDescReady)
	nic.WriteMMIO(0, NICMMIOBase+NICRegRingBase, ringPA)
	nic.WriteMMIO(0, NICMMIOBase+NICRegRingLen, 2)
	nic.WriteMMIO(0, NICMMIOBase+NICRegDMACore, 1)
	nic.WriteMMIO(0, NICMMIOBase+NICRegCtrl, NICCtrlEnable)
	nic.QueueFrame([]byte("mid-receive"))
	nic.QueueFrame([]byte("second"))

	var w wire.Writer
	nic.EncodeState(&w)

	restored := NewNIC(phys, wd, nil)
	rd := wire.NewReader(w.Bytes())
	restored.DecodeState(rd)
	if err := rd.Close(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if restored.PendingFrames() != 2 {
		t.Fatalf("pending frames %d after restore", restored.PendingFrames())
	}
	if !restored.PollPending() {
		t.Fatal("restored NIC reports no pending work")
	}
	// The restored engine must deliver exactly as the original would.
	restored.Poll(1)
	got := make([]byte, len("mid-receive"))
	phys.ReadBytes(0x30000, got)
	if string(got) != "mid-receive" {
		t.Fatalf("restored NIC delivered %q", got)
	}

	// A corrupt blob (ring geometry out of bounds) must fail decode.
	var bad wire.Writer
	bad.Bool(true)
	bad.U32(0)                  // ringBase
	bad.U32(NICRingEntries + 1) // ringLen beyond the cap
	bad.U32(0)                  // head
	bad.U32(0)                  // dmaCore
	bad.Len(0)                  // no pending frames
	for i := 0; i < 5; i++ {
		bad.U64(0)
	}
	rd = wire.NewReader(bad.Bytes())
	NewNIC(phys, wd, nil).DecodeState(rd)
	if rd.Err() == nil {
		t.Fatal("oversized ring length decoded")
	}
}
