package device

import (
	"encoding/binary"
	"fmt"

	"indra/internal/faultinject"
	"indra/internal/mem"
	"indra/internal/watchdog"
)

// The NIC is a DMA-capable network interface: the host side queues raw
// frames, and the device copies each frame into guest memory through a
// descriptor ring that lives *in* guest memory — the driver publishes
// buffers, the device consumes them. Three properties matter for the
// INDRA threat model:
//
//   - Every register access is validated by the memory watchdog as the
//     core that made it, before the register is decoded: the window at
//     NICMMIOBase lies outside every resurrectee partition, so only a
//     resurrector can program the device.
//   - Every DMA access (descriptor fetch, buffer fill, descriptor
//     write-back) is validated by the memory watchdog as the configured
//     DMA principal core, so a ring that reaches into the resurrector's
//     memory is rejected exactly like a rogue CPU store.
//   - The buffer fill goes through mem.Physical.WriteBytes and therefore
//     bypasses the per-core store-trace tap entirely — frames land in
//     memory without the monitor seeing a store. Whether code-origin
//     inspection still catches NIC-injected code is an attack scenario,
//     not an assumption (internal/attack, FaultSweep device rows). The
//     write-version bump WriteBytes performs keeps the predecode/block
//     cache coherent with DMA stores.

// NIC MMIO register map (offsets from NICMMIOBase).
const (
	NICMMIOBase  = 0xF000_0000
	NICMMIOBytes = 0x100

	NICRegCtrl     = 0x00 // bit 0: enable
	NICRegStatus   = 0x04 // read-only: pending frame count
	NICRegRingBase = 0x08 // PA of the descriptor ring
	NICRegRingLen  = 0x0C // descriptors in the ring
	NICRegHead     = 0x10 // device cursor: next descriptor to fill
	NICRegDMACore  = 0x14 // core the DMA engine acts on behalf of
)

// NICCtrlEnable arms the receive engine.
const NICCtrlEnable = 1

// Descriptor layout: 8 bytes in guest memory.
//
//	[0:4]  buffer PA
//	[4:6]  buffer capacity in bytes; rewritten with the actual frame
//	       length on completion
//	[6:8]  flags
const NICDescBytes = 8

// Descriptor flags.
const (
	NICDescReady = 1 << 0 // driver-owned: buffer is valid, device may fill
	NICDescDone  = 1 << 1 // device-owned: frame delivered
	NICDescError = 1 << 2 // device-owned: frame rejected (overrun or watchdog)
)

// NICRingEntries caps the ring length a driver may program; larger
// values are register-write errors, so a hostile ring cannot make the
// device walk arbitrary memory.
const NICRingEntries = 256

// nicMaxPending bounds the host-side frame queue.
const nicMaxPending = 1024

// NICStats counts NIC activity.
type NICStats struct {
	Frames   uint64 // frames delivered to memory
	Bytes    uint64 // payload bytes delivered
	Dropped  uint64 // frames lost to injected faults
	Rejected uint64 // descriptors refused (overrun, watchdog, geometry)
	Stalls   uint64 // polls that found no ready descriptor
}

// NIC is the device. Not safe for concurrent use.
type NIC struct {
	phys *mem.Physical
	wd   *watchdog.Watchdog
	inj  *faultinject.Injector

	enabled  bool
	ringBase uint32
	ringLen  uint32
	head     uint32
	dmaCore  uint32

	pending [][]byte
	stats   NICStats
}

// NewNIC creates a NIC over the platform's physical memory and
// watchdog. inj may be nil (no fault injection).
func NewNIC(phys *mem.Physical, wd *watchdog.Watchdog, inj *faultinject.Injector) *NIC {
	return &NIC{phys: phys, wd: wd, inj: inj}
}

// Name is the NIC's tag in the snapshot's device section.
func (n *NIC) Name() string { return "nic0" }

// Reset returns all volatile state to power-on values, including any
// frames still pending on the wire side.
func (n *NIC) Reset() {
	n.enabled = false
	n.ringBase, n.ringLen, n.head, n.dmaCore = 0, 0, 0, 0
	n.pending = nil
	n.stats = NICStats{}
}

// Stats returns a snapshot of the counters.
func (n *NIC) Stats() NICStats { return n.stats }

// PendingFrames returns how many frames await DMA.
func (n *NIC) PendingFrames() int { return len(n.pending) }

// QueueFrame enqueues one raw frame on the wire side (host/test code:
// the simulated network pushing toward the device). The frame is
// copied. Frames beyond the queue bound are dropped, as a real NIC
// drops on receive-queue overflow.
func (n *NIC) QueueFrame(data []byte) bool {
	if len(n.pending) >= nicMaxPending {
		n.stats.Dropped++
		return false
	}
	n.pending = append(n.pending, append([]byte(nil), data...))
	return true
}

// ReadMMIO reads the register at addr on behalf of core. The watchdog
// check runs first: an unprivileged core touching the register window
// is an insulation violation before it is a device access. Addresses
// that decode to no register are errors.
func (n *NIC) ReadMMIO(core int, addr uint32) (uint32, error) {
	if err := n.wd.Check(core, addr, watchdog.Read); err != nil {
		return 0, err
	}
	switch addr - NICMMIOBase {
	case NICRegCtrl:
		if n.enabled {
			return NICCtrlEnable, nil
		}
		return 0, nil
	case NICRegStatus:
		return uint32(len(n.pending)), nil
	case NICRegRingBase:
		return n.ringBase, nil
	case NICRegRingLen:
		return n.ringLen, nil
	case NICRegHead:
		return n.head, nil
	case NICRegDMACore:
		return n.dmaCore, nil
	}
	return 0, fmt.Errorf("nic: read of unmapped register %#x", addr)
}

// WriteMMIO writes val to the register at addr on behalf of core,
// watchdog-checked first like ReadMMIO.
func (n *NIC) WriteMMIO(core int, addr uint32, val uint32) error {
	if err := n.wd.Check(core, addr, watchdog.Write); err != nil {
		return err
	}
	switch addr - NICMMIOBase {
	case NICRegCtrl:
		n.enabled = val&NICCtrlEnable != 0
		return nil
	case NICRegRingBase:
		n.ringBase = val
		n.head = 0
		return nil
	case NICRegRingLen:
		if val > NICRingEntries {
			return fmt.Errorf("nic: ring length %d exceeds %d", val, NICRingEntries)
		}
		n.ringLen = val
		n.head = 0
		return nil
	case NICRegHead:
		if n.ringLen != 0 && val >= n.ringLen {
			return fmt.Errorf("nic: head %d outside ring of %d", val, n.ringLen)
		}
		n.head = val
		return nil
	case NICRegDMACore:
		n.dmaCore = val
		return nil
	case NICRegStatus:
		return fmt.Errorf("nic: status register is read-only")
	}
	return fmt.Errorf("nic: write of unmapped register %#x", addr)
}

// PollPending reports whether frames wait: the chip's run loop polls
// only then, so an idle NIC costs nothing.
func (n *NIC) PollPending() bool { return len(n.pending) > 0 }

// checkRange validates a DMA access of size bytes at pa: inside
// physical memory (a privileged DMA principal short-circuits the
// watchdog, so a malformed ring must not reach an out-of-range slice
// access), then watchdog-checked as the DMA principal.
func (n *NIC) checkRange(pa uint32, size uint32, op watchdog.Access) error {
	if end := uint64(pa) + uint64(size); end > uint64(n.phys.Size()) {
		return fmt.Errorf("nic: DMA range [%#x, %#x) outside physical memory", pa, end)
	}
	core := int(n.dmaCore)
	for off := uint32(0); off < size; off += mem.PageBytes {
		if err := n.wd.Check(core, pa+off, op); err != nil {
			return err
		}
	}
	if err := n.wd.Check(core, pa+size-1, op); err != nil {
		return err
	}
	return nil
}

// Poll delivers at most one pending frame through the descriptor
// ring; the chip's run loop calls it at deterministic instruction
// boundaries. One frame per poll keeps the per-boundary work bounded
// and the delivery schedule deterministic.
func (n *NIC) Poll(now uint64) {
	if !n.enabled || n.ringLen == 0 || len(n.pending) == 0 {
		return
	}
	descPA := n.ringBase + n.head*NICDescBytes
	// The descriptor ring lives in guest memory: fetch and write-back are
	// themselves DMA accesses. A ring reaching outside the DMA
	// principal's partition kills the engine — a hung device, not a
	// breach.
	if err := n.checkRange(descPA, NICDescBytes, watchdog.Read); err != nil {
		n.stats.Rejected++
		n.enabled = false
		return
	}
	var desc [NICDescBytes]byte
	n.phys.ReadBytes(descPA, desc[:])
	bufPA := binary.LittleEndian.Uint32(desc[0:4])
	capacity := binary.LittleEndian.Uint16(desc[4:6])
	flags := binary.LittleEndian.Uint16(desc[6:8])
	if flags&NICDescReady == 0 {
		// Driver has not published this slot yet; wait, keep the frame.
		n.stats.Stalls++
		return
	}

	frame := n.pending[0]
	if n.inj != nil && n.inj.DropFrame(now) {
		// The frame is lost on the wire side; the descriptor stays
		// published for the next frame.
		n.pending = n.pending[1:]
		n.stats.Dropped++
		return
	}

	writeBack := func(length uint16, flagBits uint16) {
		binary.LittleEndian.PutUint16(desc[4:6], length)
		binary.LittleEndian.PutUint16(desc[6:8], flagBits)
		if err := n.checkRange(descPA, NICDescBytes, watchdog.Write); err != nil {
			n.stats.Rejected++
			n.enabled = false
			return
		}
		n.phys.WriteBytes(descPA, desc[:])
		n.head = (n.head + 1) % n.ringLen
	}

	n.pending = n.pending[1:]
	if uint32(len(frame)) > uint32(capacity) {
		n.stats.Rejected++
		writeBack(capacity, NICDescDone|NICDescError)
		return
	}
	payload := append([]byte(nil), frame...)
	if n.inj != nil {
		n.inj.CorruptDMA(now, payload)
	}
	if len(payload) > 0 {
		if err := n.checkRange(bufPA, uint32(len(payload)), watchdog.Write); err != nil {
			n.stats.Rejected++
			writeBack(0, NICDescDone|NICDescError)
			return
		}
		// The fill: a store into guest memory that never crosses the
		// store-trace tap. WriteBytes bumps the page write versions, so
		// predecoded blocks over these bytes are invalidated.
		n.phys.WriteBytes(bufPA, payload)
	}
	n.stats.Frames++
	n.stats.Bytes += uint64(len(payload))
	writeBack(uint16(len(payload)), NICDescDone)
}
