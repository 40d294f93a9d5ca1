package oslite

import (
	"fmt"

	"indra/internal/asm"
	"indra/internal/checkpoint"
)

// Regs is an SRV32 register file image.
type Regs [16]uint32

// Context is the execution state captured at a request checkpoint and
// restored on recovery (the paper's "process context": PC, register
// file — Section 3.3, Figure 6).
type Context struct {
	Regs Regs
	PC   uint32
}

// Region is a half-open virtual address range.
type Region struct {
	Lo, Hi uint32
}

// Contains reports whether va falls in the region.
func (r Region) Contains(va uint32) bool { return va >= r.Lo && va < r.Hi }

// Process is an OS-lite process: one service application instance.
type Process struct {
	PID  int
	Name string
	AS   *AddressSpace
	Prog *asm.Program

	// Ckpt is the memory state backup scheme protecting this process
	// (the INDRA delta engine, or one of the baselines in experiments).
	Ckpt checkpoint.Scheme

	// Live resource state (Section 3.3.3).
	fds      descriptorTable
	children []int // spawned child PIDs, oldest first
	heap     heapState
	stack    Region

	// CurrentReq is the network request being processed (0 = none).
	CurrentReq uint64

	// Halted is set when the process exits or runs out of requests.
	Halted bool

	kern *Kernel
}

type heapState struct {
	base   uint32
	brk    uint32
	frames []uint32 // allocation order, so recovery can trim the tail
}

// ResourceSnapshot is the recorded system resource allocation status of
// Figure 6: open descriptors, children, and heap extent at checkpoint.
type ResourceSnapshot struct {
	FDs        []int
	Children   int // count; children are append-only between snapshots
	HeapBrk    uint32
	HeapFrames int
}

// SnapshotResources records the process's resource allocation status.
func (p *Process) SnapshotResources() ResourceSnapshot {
	return ResourceSnapshot{
		FDs:        p.fds.fds(),
		Children:   len(p.children),
		HeapBrk:    p.heap.brk,
		HeapFrames: len(p.heap.frames),
	}
}

// RestoreResources rolls resource state back to a snapshot: descriptors
// opened afterwards are closed (files opened before remain open), child
// processes spawned afterwards are killed (a child is never scheduled,
// so trimming its PID from the list is its death), and memory pages
// allocated afterwards are reclaimed — exactly the recovery semantics
// of Section 3.3.3. File contents, messages and signals are
// deliberately *not* restored.
func (p *Process) RestoreResources(s ResourceSnapshot) {
	keep := make(map[int]bool, len(s.FDs))
	for _, fd := range s.FDs {
		keep[fd] = true
	}
	for _, fd := range p.fds.fds() {
		if !keep[fd] {
			_ = p.fds.close(fd)
		}
	}
	p.children = p.children[:s.Children]

	for i := s.HeapFrames; i < len(p.heap.frames); i++ {
		p.kern.alloc.Free(p.heap.frames[i])
		p.AS.Unmap(p.heap.base + uint32(i)*PageBytes)
	}
	p.heap.frames = p.heap.frames[:s.HeapFrames]
	p.heap.brk = s.HeapBrk
}

// HeapBrk returns the current heap break.
func (p *Process) HeapBrk() uint32 { return p.heap.brk }

// Stack returns the stack region.
func (p *Process) Stack() Region { return p.stack }

// Children returns the live child PIDs.
func (p *Process) Children() []int { return append([]int(nil), p.children...) }

// OpenFDs returns the open descriptor numbers.
func (p *Process) OpenFDs() []int { return p.fds.fds() }

// sbrk grows the heap by n bytes (rounded up to pages) and returns the
// previous break. The break never wraps past 2^32 and never reaches
// the guard page below the stack: such a request fails before any
// frame is mapped.
func (p *Process) sbrk(n uint32) (uint32, error) {
	old := p.heap.brk
	if guard := p.stack.Lo - PageBytes; uint64(old)+uint64(n) > uint64(guard) {
		return 0, fmt.Errorf("oslite: sbrk(%#x) from break %#x passes the guard page at %#x", n, old, guard)
	}
	newBrk := old + n
	for end := p.heap.base + uint32(len(p.heap.frames))*PageBytes; end < newBrk; end += PageBytes {
		frame, err := p.kern.alloc.Alloc()
		if err != nil {
			return 0, err
		}
		p.kern.phys.ZeroPage(frame)
		p.AS.Map(end, frame, PermR|PermW)
		p.heap.frames = append(p.heap.frames, frame)
	}
	p.heap.brk = newBrk
	return old, nil
}

// mapRegion maps [va, va+size) with fresh zeroed frames.
func (p *Process) mapRegion(va, size uint32, perm Perm) error {
	if va%PageBytes != 0 {
		return fmt.Errorf("oslite: unaligned region base %#x", va)
	}
	for off := uint32(0); off < size; off += PageBytes {
		frame, err := p.kern.alloc.Alloc()
		if err != nil {
			return err
		}
		p.kern.phys.ZeroPage(frame)
		p.AS.Map(va+off, frame, perm)
	}
	return nil
}

// pageCount rounds size up to whole pages.
func pageCount(size uint32) uint32 {
	return (size + PageBytes - 1) / PageBytes * PageBytes
}
