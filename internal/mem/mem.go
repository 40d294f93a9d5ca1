// Package mem provides the physical memory shared by all cores on the
// simulated chip, plus a simple page-frame allocator that the OS-lite
// kernels and the resurrector runtime use to carve it up.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageBytes is the physical page (frame) size.
const PageBytes = 4096

// pageShift is log2(PageBytes), for the per-page write version index.
const pageShift = 12

// Physical is byte-addressable physical memory. It is a pure data
// store; timing lives in the dram package and protection in watchdog.
//
// Memory is sparse: a page exists once it is first written, and a page
// that does not exist reads as zeros. The services touch a few hundred
// of a default chip's 16,384 pages, so a chip costs what it writes,
// not its configured size.
//
// Every write bumps the containing page's version counter. The version
// stream is the coherence signal for derived caches over memory
// contents — most importantly the cores' instruction predecode cache,
// which must observe self-modifying stores, DMA, loader writes and
// checkpoint restores alike (they all funnel through these methods).
type Physical struct {
	pages []*[PageBytes]byte // nil = all zeros, not yet written
	vers  []uint32           // per-page write version; 0 = never written
}

// zeroPage is what a page that was never written (or was zeroed since)
// reads as. Read-only.
var zeroPage [PageBytes]byte

// NewPhysical returns size bytes of zeroed physical memory. Size must
// be a positive multiple of PageBytes. Only the page table and the
// version array are allocated up front; each page's bytes are
// allocated by its first store.
func NewPhysical(size uint32) *Physical {
	if size == 0 || size%PageBytes != 0 {
		panic(fmt.Sprintf("mem: size %d must be a positive multiple of %d", size, PageBytes))
	}
	n := size / PageBytes
	return &Physical{pages: make([]*[PageBytes]byte, n), vers: make([]uint32, n)}
}

// Size returns the memory size in bytes.
func (p *Physical) Size() uint32 { return uint32(len(p.vers)) << pageShift }

// frame returns page i's bytes for reading: the shared zero page when
// it does not exist.
func (p *Physical) frame(i uint32) *[PageBytes]byte {
	if pg := p.pages[i]; pg != nil {
		return pg
	}
	return &zeroPage
}

// store returns the page holding addr for writing, allocating it on
// its first store.
func (p *Physical) store(addr uint32) *[PageBytes]byte {
	i := addr >> pageShift
	pg := p.pages[i]
	if pg == nil {
		pg = new([PageBytes]byte)
		p.pages[i] = pg
	}
	return pg
}

// Read32 loads a little-endian 32-bit word. The address must be in
// range; the watchdog guarantees range, so a violation here is a
// simulator bug and panics. An unaligned address (an attack-crafted
// fetch target) may straddle two pages.
func (p *Physical) Read32(addr uint32) uint32 {
	off := addr & (PageBytes - 1)
	if off > PageBytes-4 {
		var b [4]byte
		p.ReadBytes(addr, b[:])
		return binary.LittleEndian.Uint32(b[:])
	}
	return binary.LittleEndian.Uint32(p.frame(addr >> pageShift)[off:])
}

// Write32 stores a little-endian 32-bit word. The address must be in
// range and 4-byte aligned, so the word lies in one page; the simulator
// guarantees alignment by construction, and a word that would straddle
// pages panics.
func (p *Physical) Write32(addr uint32, v uint32) {
	off := addr & (PageBytes - 1)
	binary.LittleEndian.PutUint32(p.store(addr)[off:off+4], v)
	p.vers[addr>>pageShift]++
}

// Read8 loads a byte.
func (p *Physical) Read8(addr uint32) uint8 {
	return p.frame(addr >> pageShift)[addr&(PageBytes-1)]
}

// Write8 stores a byte.
func (p *Physical) Write8(addr uint32, v uint8) {
	p.store(addr)[addr&(PageBytes-1)] = v
	p.vers[addr>>pageShift]++
}

// ReadBytes copies len(dst) bytes starting at addr into dst. The range
// may cross pages: NIC DMA and disk transfers move contiguous physical
// ranges.
func (p *Physical) ReadBytes(addr uint32, dst []byte) {
	for len(dst) > 0 {
		n := copy(dst, p.frame(addr >> pageShift)[addr&(PageBytes-1):])
		dst = dst[n:]
		addr += uint32(n)
	}
}

// WriteBytes copies src into memory starting at addr, bumping each
// touched page's version once.
func (p *Physical) WriteBytes(addr uint32, src []byte) {
	for len(src) > 0 {
		n := copy(p.store(addr)[addr&(PageBytes-1):], src)
		p.vers[addr>>pageShift]++
		src = src[n:]
		addr += uint32(n)
	}
}

// ZeroPage clears the frame containing addr: the page stops existing
// and reads as zeros again.
func (p *Physical) ZeroPage(addr uint32) {
	p.pages[addr>>pageShift] = nil
	p.vers[addr>>pageShift]++
}

// PageVersion returns the write version of the page containing addr: a
// counter that changes on every store, bulk write or zeroing of the
// page. Derived caches (instruction predecode) revalidate against it.
func (p *Physical) PageVersion(addr uint32) uint32 {
	return p.vers[addr>>pageShift]
}

// fnv-1a parameters for the state digests below.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// VersionDigest hashes the per-page write-version array: a cheap proxy
// for the memory image (every content change bumps a version) that the
// differential harness compares at each lockstep boundary. Two runs
// from the same image with the same store sequence must match.
func (p *Physical) VersionDigest() uint64 {
	h := uint64(fnvOffset)
	for _, v := range p.vers {
		h = (h ^ uint64(v)) * fnvPrime
	}
	return h
}

// Digest hashes the full architectural memory image — every written
// page's index, version and contents, zeros for a page zeroed since
// (version 0 pages are all-zero by invariant, so they are covered by
// their absence). Order-sensitive
// FNV-1a; used by the differential harness for exact end-state
// comparison.
func (p *Physical) Digest() uint64 {
	h := uint64(fnvOffset)
	for i, v := range p.vers {
		if v == 0 {
			continue
		}
		h = (h ^ uint64(i)) * fnvPrime
		h = (h ^ uint64(v)) * fnvPrime
		for _, b := range p.frame(uint32(i)) {
			h = (h ^ uint64(b)) * fnvPrime
		}
	}
	return h
}

// FrameAllocator hands out physical page frames from a fixed region.
// Each security domain (the resurrector's private region, each
// resurrectee's region) gets its own allocator over its own partition,
// so allocation can never cross the insulation boundary by construction
// — the watchdog then enforces the same boundary on every access.
type FrameAllocator struct {
	lo, hi uint32 // region [lo, hi)
	next   uint32
	free   []uint32 // recycled frames
}

// NewFrameAllocator creates an allocator over [lo, hi), which must be
// page-aligned and non-empty.
func NewFrameAllocator(lo, hi uint32) *FrameAllocator {
	if lo%PageBytes != 0 || hi%PageBytes != 0 || hi <= lo {
		panic(fmt.Sprintf("mem: bad allocator region [%#x, %#x)", lo, hi))
	}
	return &FrameAllocator{lo: lo, hi: hi, next: lo}
}

// Region returns the allocator's [lo, hi) bounds.
func (f *FrameAllocator) Region() (lo, hi uint32) { return f.lo, f.hi }

// Alloc returns the base address of a fresh frame, or an error when the
// region is exhausted.
func (f *FrameAllocator) Alloc() (uint32, error) {
	if n := len(f.free); n > 0 {
		fr := f.free[n-1]
		f.free = f.free[:n-1]
		return fr, nil
	}
	if f.next >= f.hi {
		return 0, fmt.Errorf("mem: frame region [%#x, %#x) exhausted", f.lo, f.hi)
	}
	fr := f.next
	f.next += PageBytes
	return fr, nil
}

// Free returns a frame to the allocator. Freeing a frame outside the
// region is a simulator bug and panics.
func (f *FrameAllocator) Free(frame uint32) {
	if frame < f.lo || frame >= f.hi || frame%PageBytes != 0 {
		panic(fmt.Sprintf("mem: free of invalid frame %#x", frame))
	}
	f.free = append(f.free, frame)
}

// InUse returns the number of frames currently allocated.
func (f *FrameAllocator) InUse() int {
	return int((f.next-f.lo)/PageBytes) - len(f.free)
}
