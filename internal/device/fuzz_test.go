package device

import (
	"bytes"
	"testing"

	"indra/internal/mem"
	"indra/internal/snapshot/wire"
)

// FuzzMMIODispatch throws register accesses at the NIC: each of the
// five fuzzed addresses is read and written from the fuzzed core and
// from core 0. Nothing may panic. A nonzero core is unprivileged in
// testNIC's topology, and the register window lies outside its
// partition, so it must be refused every access and leave the NIC's
// state unchanged.
func FuzzMMIODispatch(f *testing.F) {
	f.Add(uint32(0xE000_0000), uint32(0xE000_0040), uint32(0xE000_0020), uint32(0xE000_0060),
		uint32(NICMMIOBase+NICRegCtrl), uint32(1), uint8(0))
	f.Add(uint32(0), uint32(0xFFFF_FFFF), uint32(NICMMIOBase), uint32(NICMMIOBase+4),
		uint32(NICMMIOBase+NICRegStatus), uint32(0), uint8(1))
	f.Add(uint32(8), uint32(8), uint32(4), uint32(2),
		uint32(0x1234_5678), uint32(0xFFFF_FFFF), uint8(200))
	f.Fuzz(func(t *testing.T, lo1, hi1, lo2, hi2, addr, val uint32, core uint8) {
		nic, _, _ := testNIC()
		state := func() []byte {
			var w wire.Writer
			nic.EncodeState(&w)
			return w.Bytes()
		}
		for _, a := range []uint32{lo1, hi1, lo2, hi2, addr} {
			before := state()
			_, rerr := nic.ReadMMIO(int(core), a)
			werr := nic.WriteMMIO(int(core), a, val)
			if core != 0 {
				if rerr == nil || werr == nil {
					t.Fatalf("core %d accessed %#x: read err %v, write err %v", core, a, rerr, werr)
				}
				if !bytes.Equal(state(), before) {
					t.Fatalf("refused core %d changed the NIC at %#x", core, a)
				}
			}
			_, _ = nic.ReadMMIO(0, a)
			_ = nic.WriteMMIO(0, a, val)
		}
	})
}

// FuzzDMADescriptor drives the NIC receive engine over arbitrary ring
// geometry, raw descriptor bytes and frame payloads. Malformed rings
// must be rejected through the error paths (stats, engine disable) —
// never a panic, never a head outside the ring, and never a DMA store
// into memory the DMA principal does not own.
func FuzzDMADescriptor(f *testing.F) {
	ready := []byte{0x00, 0x00, 0x03, 0x00, 0x40, 0x00, 0x01, 0x00} // bufPA 0x30000, cap 64, Ready
	f.Add(uint32(0x20000), uint32(1), uint32(0), uint32(1), ready, []byte("frame"))
	f.Add(uint32(0x20000), uint32(2), uint32(1), uint32(1), []byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte("x"))
	f.Add(uint32(0xFFFF_FFF0), uint32(1), uint32(0), uint32(0), ready, []byte("oob ring"))
	f.Add(uint32(0x20000), uint32(NICRingEntries), uint32(0), uint32(7),
		[]byte{0x00, 0x10, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00}, []byte("overreach"))
	f.Fuzz(func(t *testing.T, ringBase, ringLen, head, dmaCore uint32, desc, frame []byte) {
		if len(desc) > 4096 {
			desc = desc[:4096]
		}
		if len(frame) > 4096 {
			frame = frame[:4096]
		}
		nic, phys, _ := testNIC()
		// Plant raw descriptor bytes where a ring at 0x20000 would be.
		phys.WriteBytes(0x20000, desc)
		// Baseline versions of the resurrector's first pages, to catch
		// an unprivileged DMA principal escaping its partition.
		var base [16]uint32
		for i := range base {
			base[i] = phys.PageVersion(uint32(i) * mem.PageBytes)
		}
		// Program as the driver would; register refusals are valid
		// outcomes, delivery just stays off.
		_ = nic.WriteMMIO(0, NICMMIOBase+NICRegRingBase, ringBase)
		_ = nic.WriteMMIO(0, NICMMIOBase+NICRegRingLen, ringLen)
		_ = nic.WriteMMIO(0, NICMMIOBase+NICRegHead, head)
		_ = nic.WriteMMIO(0, NICMMIOBase+NICRegDMACore, dmaCore)
		_ = nic.WriteMMIO(0, NICMMIOBase+NICRegCtrl, NICCtrlEnable)
		nic.QueueFrame(frame)
		nic.QueueFrame(frame)
		for i := 0; i < 8; i++ {
			nic.Poll(uint64(i))
		}
		hv, _ := nic.ReadMMIO(0, NICMMIOBase+NICRegHead)
		lv, _ := nic.ReadMMIO(0, NICMMIOBase+NICRegRingLen)
		if lv != 0 && hv >= lv {
			t.Fatalf("head %d outside ring of %d", hv, lv)
		}
		if dmaCore != 0 {
			// Only core 0 is privileged here: any other DMA principal
			// must have left the resurrector's memory untouched.
			for i := range base {
				if phys.PageVersion(uint32(i)*mem.PageBytes) != base[i] {
					t.Fatalf("DMA principal %d wrote resurrector page %d", dmaCore, i)
				}
			}
		}
	})
}
