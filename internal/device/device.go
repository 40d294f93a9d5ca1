// Package device models the peripherals of the INDRA platform —
// a block storage device with a DMA engine. The paper's privilege
// model (Section 2.3.1) grants the resurrector access to "all the
// hardware resources including ... I/O devices and all the DMA
// engines" while low-privileged cores get "limited access to the
// peripherals": every DMA descriptor here carries the *originating
// core's* ID and each touched physical range is validated by the same
// memory watchdog that guards CPU accesses, so a compromised
// resurrectee cannot use the DMA engine to read or overwrite the
// monitor's memory.
package device

import (
	"fmt"

	"indra/internal/faultinject"
	"indra/internal/mem"
	"indra/internal/watchdog"
)

// SectorBytes is the disk's sector size.
const SectorBytes = 512

// Direction of a DMA transfer, from the device's point of view.
type Direction uint8

const (
	// ToMemory: device → physical memory (a disk read).
	ToMemory Direction = iota
	// FromMemory: physical memory → device (a disk write).
	FromMemory
)

func (d Direction) String() string {
	if d == ToMemory {
		return "to-memory"
	}
	return "from-memory"
}

// DMAFault is a rejected DMA descriptor. It wraps the watchdog
// violation so callers can distinguish insulation breaches from bad
// geometry.
type DMAFault struct {
	Core   int
	Sector uint32
	PA     uint32
	Dir    Direction
	Err    error
}

func (f *DMAFault) Error() string {
	return fmt.Sprintf("dma: core %d %s sector %d pa=%#x: %v", f.Core, f.Dir, f.Sector, f.PA, f.Err)
}

func (f *DMAFault) Unwrap() error { return f.Err }

// Stats counts device activity.
type Stats struct {
	Reads    uint64
	Writes   uint64
	Sectors  uint64
	Rejected uint64
	Cycles   uint64
}

// CostFunc prices a DMA transfer of n bytes (the chip wires this to
// its DRAM model: the DMA engine arbitrates for the same memory bus).
type CostFunc func(n uint32) uint64

// Disk is an in-memory block device behind a watchdog-checked DMA
// engine. Not safe for concurrent use.
type Disk struct {
	sectors map[uint32][]byte
	phys    *mem.Physical
	wd      *watchdog.Watchdog
	cost    CostFunc
	// seekCycles models per-command device latency (command issue,
	// on-device access). A few microseconds of a 2006 disk's response
	// would dwarf the simulation; this stands in for a device-side
	// cache hit so I/O-heavy handlers stay in proportion.
	seekCycles uint64
	stats      Stats
	inj        *faultinject.Injector
	now        func() uint64
}

// NewDisk creates a disk over the platform's physical memory, watchdog
// and cost model. A nil cost prices transfers at zero.
func NewDisk(phys *mem.Physical, wd *watchdog.Watchdog, cost CostFunc) *Disk {
	if cost == nil {
		cost = func(uint32) uint64 { return 0 }
	}
	return &Disk{
		sectors:    make(map[uint32][]byte),
		phys:       phys,
		wd:         wd,
		cost:       cost,
		seekCycles: 800,
	}
}

// Name implements Device.
func (d *Disk) Name() string { return "disk0" }

// Start implements Device.
func (d *Disk) Start() {}

// Stop implements Device.
func (d *Disk) Stop() {}

// Reset implements Device. The sector store is non-volatile and
// survives a reset by design (Section 3.3.3: disk contents, once
// written, are never rolled back).
func (d *Disk) Reset() {}

// SetFaults arms the disk's DMA path with a fault injector and a cycle
// clock (CorruptDMA decisions are keyed on the current cycle). Either
// may be nil to disarm.
func (d *Disk) SetFaults(inj *faultinject.Injector, now func() uint64) {
	d.inj = inj
	d.now = now
}

// Stats returns a snapshot of the counters.
func (d *Disk) Stats() Stats { return d.stats }

// SectorCount returns the number of sectors ever written.
func (d *Disk) SectorCount() int { return len(d.sectors) }

// Peek returns a copy of a sector's contents (zeroes if never written).
func (d *Disk) Peek(sector uint32) []byte {
	out := make([]byte, SectorBytes)
	copy(out, d.sectors[sector])
	return out
}

// HostWriteSector stores one sector from the host side, bypassing the
// DMA engine entirely: no watchdog check, no cycles, no stats. This is
// the platform back door the storage-backed fs uses to persist file
// mutations (which are already priced by the syscall layer) — and the
// surface a disk-tamper attack scenario uses to corrupt a binary at
// rest. data longer than a sector is truncated; shorter is copied and
// zero-padded.
//
// A full sector is kept as a view of data, not a copy, so the caller
// must never mutate those bytes afterwards. The disk itself never
// does: every write replaces a sector's slice.
func (d *Disk) HostWriteSector(sector uint32, data []byte) {
	if len(data) >= SectorBytes {
		d.sectors[sector] = data[:SectorBytes:SectorBytes]
		return
	}
	buf := make([]byte, SectorBytes)
	copy(buf, data)
	d.sectors[sector] = buf
}

// check validates one sector-sized physical range for the originating
// core. op is the direction of the *memory* access the DMA performs.
func (d *Disk) check(core int, sector, pa uint32, dir Direction) error {
	op := watchdog.Write
	if dir == FromMemory {
		op = watchdog.Read
	}
	for off := uint32(0); off < SectorBytes; off += mem.PageBytes {
		if err := d.wd.Check(core, pa+off, op); err != nil {
			d.stats.Rejected++
			return &DMAFault{Core: core, Sector: sector, PA: pa, Dir: dir, Err: err}
		}
	}
	// The last byte may land on a later page.
	if err := d.wd.Check(core, pa+SectorBytes-1, op); err != nil {
		d.stats.Rejected++
		return &DMAFault{Core: core, Sector: sector, PA: pa, Dir: dir, Err: err}
	}
	return nil
}

// ReadSectors DMAs n sectors starting at sector into physical memory
// at the given per-sector addresses (one address per sector, so the
// kernel can scatter across non-contiguous frames). Returns modelled
// cycles.
func (d *Disk) ReadSectors(core int, sector uint32, pas []uint32) (uint64, error) {
	cycles := d.seekCycles
	for i, pa := range pas {
		s := sector + uint32(i)
		if err := d.check(core, s, pa, ToMemory); err != nil {
			return cycles, err
		}
		buf := d.sectors[s]
		if buf == nil {
			buf = make([]byte, SectorBytes)
		}
		// A DMACorrupt fault strikes the in-flight copy on the bus; the
		// device-side sector stays intact.
		if d.inj != nil && d.now != nil && d.inj.Armed(faultinject.SiteDMACorrupt) {
			tmp := make([]byte, SectorBytes)
			copy(tmp, buf)
			d.inj.CorruptDMA(d.now(), tmp)
			buf = tmp
		}
		d.phys.WriteBytes(pa, buf)
		cycles += d.cost(SectorBytes)
		d.stats.Sectors++
	}
	d.stats.Reads++
	d.stats.Cycles += cycles
	return cycles, nil
}

// WriteSectors DMAs n sectors from physical memory to the device.
// Per Section 3.3.3 the contents, once written, are never rolled back:
// the synchronisation rule guarantees only verified execution reaches
// this point.
func (d *Disk) WriteSectors(core int, sector uint32, pas []uint32) (uint64, error) {
	cycles := d.seekCycles
	for i, pa := range pas {
		s := sector + uint32(i)
		if err := d.check(core, s, pa, FromMemory); err != nil {
			return cycles, err
		}
		buf := make([]byte, SectorBytes)
		d.phys.ReadBytes(pa, buf)
		d.sectors[s] = buf
		cycles += d.cost(SectorBytes)
		d.stats.Sectors++
	}
	d.stats.Writes++
	d.stats.Cycles += cycles
	return cycles, nil
}
