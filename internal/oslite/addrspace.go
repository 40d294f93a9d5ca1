// Package oslite is the light operating system that runs on INDRA's
// resurrectee cores: virtual address spaces over watchdog-partitioned
// physical memory, processes with recoverable resource state (file
// descriptors, children, heap), an in-memory file system, and the
// syscall layer that ties server applications to the simulated network
// and to the checkpoint/recovery machinery.
//
// It corresponds to the "full operating system" the resurrectees boot
// in the paper (Section 3.1.2), reduced to what network services and
// the recovery model of Section 3.3.3 require.
package oslite

import (
	"fmt"

	"indra/internal/mem"
)

// PageBytes is the virtual page size (matches the physical frame size).
const PageBytes = mem.PageBytes

// Perm is a page permission bitmask.
type Perm uint8

// Page permissions. Execute is deliberately *not* enforced at fetch
// time by the resurrectee hardware: the paper argues local
// execute-permission bits can be tampered with by a compromised kernel,
// which is why authoritative code-origin state lives in the resurrector
// (Section 3.2.2). The bits recorded here are what the loader *posts*
// to the resurrector at program start.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// PageFault describes a failed translation or permission check.
type PageFault struct {
	VA    uint32
	Write bool
	Perm  Perm // permissions found (0 if unmapped)
}

func (f *PageFault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	if f.Perm == 0 {
		return fmt.Sprintf("page fault: %s of unmapped va %#x", op, f.VA)
	}
	return fmt.Sprintf("page fault: %s of va %#x denied (%s)", op, f.VA, f.Perm)
}

type pte struct {
	frame uint32
	perm  Perm
}

// AddressSpace is a per-process page table over physical memory. It
// implements checkpoint.Memory so the delta engine can copy pre-images
// and lazily restore lines in terms of virtual addresses.
//
// Translate carries a one-entry inline cache over the page-table map:
// the simulated core translates on every fetch and data access, and
// consecutive accesses overwhelmingly hit the same page. The cache is
// purely functional (the TLB model owns translation *timing*) and is
// invalidated on any Map/Unmap.
type AddressSpace struct {
	phys  *mem.Physical
	pages map[uint32]pte // key: virtual page number

	lastVPN uint32
	lastPTE pte
	lastOK  bool
}

// NewAddressSpace creates an empty address space over phys.
func NewAddressSpace(phys *mem.Physical) *AddressSpace {
	return &AddressSpace{phys: phys, pages: make(map[uint32]pte)}
}

func vpn(va uint32) uint32 { return va / PageBytes }

// Map installs a translation from the page containing va to the
// physical frame, with the given permissions.
func (as *AddressSpace) Map(va uint32, frame uint32, perm Perm) {
	if frame%PageBytes != 0 {
		panic(fmt.Sprintf("oslite: unaligned frame %#x", frame))
	}
	as.pages[vpn(va)] = pte{frame: frame, perm: perm}
	as.lastOK = false
}

// Unmap removes the translation for the page containing va and returns
// the frame it pointed to (ok=false if unmapped).
func (as *AddressSpace) Unmap(va uint32) (frame uint32, ok bool) {
	p, ok := as.pages[vpn(va)]
	if ok {
		delete(as.pages, vpn(va))
	}
	as.lastOK = false
	return p.frame, ok
}

// Mapped reports whether va has a translation.
func (as *AddressSpace) Mapped(va uint32) bool {
	_, ok := as.pages[vpn(va)]
	return ok
}

// PermAt returns the permissions of the page containing va (0 if unmapped).
func (as *AddressSpace) PermAt(va uint32) Perm { return as.pages[vpn(va)].perm }

// Translate resolves va to a physical address, checking only presence.
// Permission enforcement is the caller's policy decision (stores check
// PermW; fetches deliberately skip PermX — see the Perm doc).
func (as *AddressSpace) Translate(va uint32) (pa uint32, perm Perm, err error) {
	n := vpn(va)
	if as.lastOK && n == as.lastVPN {
		return as.lastPTE.frame + va%PageBytes, as.lastPTE.perm, nil
	}
	p, ok := as.pages[n]
	if !ok {
		return 0, 0, &PageFault{VA: va}
	}
	as.lastVPN, as.lastPTE, as.lastOK = n, p, true
	return p.frame + va%PageBytes, p.perm, nil
}

// mustPA translates or panics; for kernel-internal accesses to pages it
// just mapped itself.
func (as *AddressSpace) mustPA(va uint32) uint32 {
	pa, _, err := as.Translate(va)
	if err != nil {
		panic(err)
	}
	return pa
}

// ReadLine implements checkpoint.Memory. Lines are aligned and never
// cross page boundaries.
func (as *AddressSpace) ReadLine(va uint32, buf []byte) {
	as.phys.ReadBytes(as.mustPA(va), buf)
}

// WriteLine implements checkpoint.Memory.
func (as *AddressSpace) WriteLine(va uint32, data []byte) {
	as.phys.WriteBytes(as.mustPA(va), data)
}

// Read32 loads a word at va (functional, kernel use).
func (as *AddressSpace) Read32(va uint32) (uint32, error) {
	pa, _, err := as.Translate(va)
	if err != nil {
		return 0, err
	}
	return as.phys.Read32(pa), nil
}

// Write32 stores a word at va (functional, kernel use; no W check).
func (as *AddressSpace) Write32(va uint32, v uint32) error {
	pa, _, err := as.Translate(va)
	if err != nil {
		return err
	}
	as.phys.Write32(pa, v)
	return nil
}

// Read8 loads a byte at va.
func (as *AddressSpace) Read8(va uint32) (uint8, error) {
	pa, _, err := as.Translate(va)
	if err != nil {
		return 0, err
	}
	return as.phys.Read8(pa), nil
}

// Write8 stores a byte at va.
func (as *AddressSpace) Write8(va uint32, v uint8) error {
	pa, _, err := as.Translate(va)
	if err != nil {
		return err
	}
	as.phys.Write8(pa, v)
	return nil
}

// check reports whether a kernel access may touch [va, va+n): the end
// is computed in 64 bits, so the range may not wrap past 2^32, and
// every page it touches must be mapped. The fault names the first
// address that fails, 0 for a wrap; write says which way the kernel
// was copying. An empty range touches no page.
func (as *AddressSpace) check(va, n uint32, write bool) error {
	end := uint64(va) + uint64(n)
	for a := uint64(va); a < end; a = a&^(PageBytes-1) + PageBytes {
		if a >= 1<<32 || !as.Mapped(uint32(a)) {
			return &PageFault{VA: uint32(a), Write: write}
		}
	}
	return nil
}

// walk calls fn for each page piece of [va, va+n) in address order,
// with the piece's physical address and its offset and length within
// the range. The range must have passed check.
func (as *AddressSpace) walk(va, n uint32, fn func(pa, off, m uint32)) {
	for off := uint32(0); off < n; {
		m := min(PageBytes-(va+off)%PageBytes, n-off)
		fn(as.mustPA(va+off), off, m)
		off += m
	}
}

// ReadBytes copies len(dst) bytes from va, or nothing if any of the
// range is unmapped.
func (as *AddressSpace) ReadBytes(va uint32, dst []byte) error {
	n := uint32(len(dst))
	if err := as.check(va, n, false); err != nil {
		return err
	}
	as.walk(va, n, func(pa, off, m uint32) { as.phys.ReadBytes(pa, dst[off:off+m]) })
	return nil
}

// WriteBytes copies src to va, or nothing if any of the range is
// unmapped.
func (as *AddressSpace) WriteBytes(va uint32, src []byte) error {
	n := uint32(len(src))
	if err := as.check(va, n, true); err != nil {
		return err
	}
	as.walk(va, n, func(pa, off, m uint32) { as.phys.WriteBytes(pa, src[off:off+m]) })
	return nil
}

// Pages returns the number of mapped pages.
func (as *AddressSpace) Pages() int { return len(as.pages) }

// EachPage calls fn for every mapped page (iteration order unspecified).
func (as *AddressSpace) EachPage(fn func(vaBase uint32, frame uint32, perm Perm)) {
	for v, p := range as.pages {
		fn(v*PageBytes, p.frame, p.perm)
	}
}
