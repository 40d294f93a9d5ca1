package oslite

import (
	"errors"
	"strings"
	"testing"

	"indra/internal/device"
	"indra/internal/mem"
	"indra/internal/watchdog"
)

// --- descriptor table --------------------------------------------------

func TestDescriptorTable(t *testing.T) {
	tab := newDescriptorTable()
	f := &File{Name: "a"}

	d1 := tab.insert(f, false)
	d2 := tab.insert(f, true)
	if d1.FD != 3 || d2.FD != 4 {
		t.Fatalf("fds start at 3 and increment: got %d, %d", d1.FD, d2.FD)
	}
	if d1.Append || !d2.Append {
		t.Fatalf("append flags: %v %v", d1.Append, d2.Append)
	}

	got, err := tab.get(3)
	if err != nil || got != d1 {
		t.Fatalf("get(3) = %v, %v", got, err)
	}
	// 0-2 are reserved for stdio and never in the table.
	for _, fd := range []int{0, 1, 2, 99} {
		if _, err := tab.get(fd); err == nil {
			t.Fatalf("get(%d) should fail", fd)
		}
	}

	if err := tab.close(3); err != nil {
		t.Fatal(err)
	}
	if err := tab.close(3); err == nil {
		t.Fatal("double close should fail")
	}
	if _, err := tab.get(3); err == nil {
		t.Fatal("closed descriptor still readable")
	}

	// Descriptor numbers are never reused: the recovery model identifies
	// post-checkpoint opens by fd, so reuse would alias old and new files.
	d3 := tab.insert(f, false)
	if d3.FD != 5 {
		t.Fatalf("fd reused after close: got %d, want 5", d3.FD)
	}
	fds := tab.fds()
	if len(fds) != 2 || fds[0] != 4 || fds[1] != 5 {
		t.Fatalf("fds() = %v, want [4 5]", fds)
	}
}

// --- heap --------------------------------------------------------------

func TestSbrkPageGranularity(t *testing.T) {
	k := testKernel(t, nil, nil)
	p := spawnTest(t, k, false)

	brk0 := p.HeapBrk()
	frames0 := len(p.heap.frames)
	if brk0 != p.heap.base || frames0 != 0 {
		t.Fatalf("fresh heap not empty: brk %#x base %#x frames %d", brk0, p.heap.base, frames0)
	}

	// sbrk(0) is the classic break query: no growth, no frames.
	old, err := p.sbrk(0)
	if err != nil || old != brk0 || p.HeapBrk() != brk0 || len(p.heap.frames) != 0 {
		t.Fatalf("sbrk(0): old %#x err %v brk %#x frames %d", old, err, p.HeapBrk(), len(p.heap.frames))
	}

	// One byte maps one page.
	if _, err := p.sbrk(1); err != nil {
		t.Fatal(err)
	}
	if len(p.heap.frames) != 1 || !p.AS.Mapped(p.heap.base) {
		t.Fatalf("sbrk(1): frames %d mapped %v", len(p.heap.frames), p.AS.Mapped(p.heap.base))
	}
	if p.AS.PermAt(p.heap.base) != PermR|PermW {
		t.Fatalf("heap page perm %v", p.AS.PermAt(p.heap.base))
	}

	// Growing up to (but not past) the page edge allocates nothing new.
	if _, err := p.sbrk(PageBytes - 1); err != nil {
		t.Fatal(err)
	}
	if len(p.heap.frames) != 1 {
		t.Fatalf("growth within the mapped page allocated a frame: %d", len(p.heap.frames))
	}
	if p.HeapBrk() != p.heap.base+PageBytes {
		t.Fatalf("brk %#x, want page edge %#x", p.HeapBrk(), p.heap.base+PageBytes)
	}

	// One more byte crosses into a fresh page.
	if _, err := p.sbrk(1); err != nil {
		t.Fatal(err)
	}
	if len(p.heap.frames) != 2 || !p.AS.Mapped(p.heap.base+PageBytes) {
		t.Fatalf("page-crossing sbrk: frames %d", len(p.heap.frames))
	}

	// Fresh heap pages are zeroed.
	if b, err := p.AS.Read8(p.heap.base + PageBytes); err != nil || b != 0 {
		t.Fatalf("fresh heap byte %d, err %v", b, err)
	}
}

func TestSbrkExhaustsPhysicalMemory(t *testing.T) {
	k := testKernel(t, nil, nil)
	p := spawnTest(t, k, false)

	var sbrkErr error
	for i := 0; i < 1<<16; i++ {
		if _, err := p.sbrk(PageBytes); err != nil {
			sbrkErr = err
			break
		}
	}
	if sbrkErr == nil {
		t.Fatal("sbrk never hit the frame allocator limit")
	}
	// The failed call must not advance the break past what is mapped.
	if want := p.heap.base + uint32(len(p.heap.frames))*PageBytes; p.HeapBrk() != want {
		t.Fatalf("brk %#x inconsistent with %d mapped frames (want %#x)", p.HeapBrk(), len(p.heap.frames), want)
	}
}

// On a kernel over a chip's whole partition, [16 MiB, 64 MiB), there
// are frames enough to map the heap over the stack. An sbrk whose break
// would reach the guard page below the stack faults before any frame
// is mapped, so the stack keeps its frames and bytes; one that ends
// just below the guard page succeeds.
func TestSbrkStopsAtStackGuardPage(t *testing.T) {
	phys := mem.NewPhysical(64 << 20)
	disk := device.NewDisk(phys, watchdog.New(watchdog.Config{Privileged: watchdog.CoreMask(1)}), nil)
	k := NewKernel(phys, 16<<20, 64<<20, disk, &fakeNet{}, &fakeHooks{})
	p := spawnTest(t, k, false)
	sp := k.InitialContext(p).Regs[14]
	if err := p.AS.Write32(sp, 0xC0FFEE); err != nil {
		t.Fatal(err)
	}
	brk, inUse := p.HeapBrk(), k.Allocator().InUse()
	cpu := &fakeCPU{}
	cpu.SetReg(1, p.Stack().Hi-brk)
	var pf *ProcFault
	if _, err := k.Syscall(p, cpu, SysSbrk); !errors.As(err, &pf) {
		t.Fatalf("sbrk over the stack: got %v, want a process fault", err)
	}
	if p.HeapBrk() != brk || k.Allocator().InUse() != inUse {
		t.Fatalf("failed sbrk moved the break to %#x and frames in use to %d (from %#x, %d)",
			p.HeapBrk(), k.Allocator().InUse(), brk, inUse)
	}
	if v, err := p.AS.Read32(sp); err != nil || v != 0xC0FFEE {
		t.Fatalf("word at sp reads %#x, %v after the failed sbrk", v, err)
	}

	guard := p.Stack().Lo - PageBytes
	cpu.SetReg(1, guard-brk)
	if _, err := k.Syscall(p, cpu, SysSbrk); err != nil {
		t.Fatalf("sbrk up to the guard page: %v", err)
	}
	if !p.AS.Mapped(guard-1) || p.AS.Mapped(guard) {
		t.Fatalf("heap ends at %#x; want its last page just below the guard page %#x", p.HeapBrk(), guard)
	}
}

// sbrk takes an unsigned increment: one that wraps the break past 2^32
// faults and leaves the break where it was.
func TestSbrkRejectsWrap(t *testing.T) {
	k := testKernel(t, nil, nil)
	p := spawnTest(t, k, false)
	if _, err := p.sbrk(PageBytes); err != nil {
		t.Fatal(err)
	}
	brk := p.HeapBrk()
	cpu := &fakeCPU{}
	cpu.SetReg(1, 0xFFFF_F000)
	var pf *ProcFault
	if _, err := k.Syscall(p, cpu, SysSbrk); !errors.As(err, &pf) {
		t.Fatalf("wrapping sbrk: got %v, want a process fault", err)
	}
	if p.HeapBrk() != brk || len(p.heap.frames) != 1 {
		t.Fatalf("wrapping sbrk left break %#x and %d frames, want %#x and 1", p.HeapBrk(), len(p.heap.frames), brk)
	}
}

func TestRestoreResourcesUnmapsHeapTail(t *testing.T) {
	k := testKernel(t, nil, nil)
	p := spawnTest(t, k, false)

	if _, err := p.sbrk(2 * PageBytes); err != nil {
		t.Fatal(err)
	}
	snap := p.SnapshotResources()
	if _, err := p.sbrk(2 * PageBytes); err != nil {
		t.Fatal(err)
	}
	tail := p.heap.base + 3*PageBytes
	if !p.AS.Mapped(tail) {
		t.Fatal("post-snapshot heap page not mapped")
	}

	p.RestoreResources(snap)
	if p.HeapBrk() != snap.HeapBrk || len(p.heap.frames) != snap.HeapFrames {
		t.Fatalf("heap not trimmed: brk %#x frames %d, want %#x %d",
			p.HeapBrk(), len(p.heap.frames), snap.HeapBrk, snap.HeapFrames)
	}
	if p.AS.Mapped(tail) {
		t.Fatal("post-snapshot heap page still mapped after restore")
	}
	// The reclaimed frames go back to the allocator: growth succeeds again.
	if _, err := p.sbrk(PageBytes); err != nil {
		t.Fatalf("regrow after restore: %v", err)
	}
}

// --- address space inventory ------------------------------------------

func TestStackRegionAndPageInventory(t *testing.T) {
	k := testKernel(t, nil, nil)
	p := spawnTest(t, k, false)

	st := p.Stack()
	if st.Hi <= st.Lo {
		t.Fatalf("degenerate stack region %+v", st)
	}
	if !st.Contains(st.Lo) || st.Contains(st.Hi) {
		t.Fatal("stack region bounds are not half-open")
	}

	n := p.AS.Pages()
	if n == 0 {
		t.Fatal("spawned process has no mapped pages")
	}
	var count, stackPages int
	p.AS.EachPage(func(vaBase, frame uint32, perm Perm) {
		count++
		if st.Contains(vaBase) {
			stackPages++
			if perm != PermR|PermW {
				t.Errorf("stack page %#x perm %v", vaBase, perm)
			}
		}
	})
	if count != n {
		t.Fatalf("EachPage visited %d pages, Pages() = %d", count, n)
	}
	if wantPages := int((st.Hi - st.Lo) / PageBytes); stackPages != wantPages {
		t.Fatalf("stack pages visited %d, region holds %d", stackPages, wantPages)
	}
}

// --- error strings -----------------------------------------------------

func TestFaultErrorStrings(t *testing.T) {
	unmapped := &PageFault{VA: 0x1234, Write: true}
	if msg := unmapped.Error(); !strings.Contains(msg, "write") || !strings.Contains(msg, "unmapped") {
		t.Fatalf("unmapped fault message %q", msg)
	}
	denied := &PageFault{VA: 0x1234, Perm: PermR}
	if msg := denied.Error(); !strings.Contains(msg, "denied") || !strings.Contains(msg, "r--") {
		t.Fatalf("denied fault message %q", msg)
	}
	pf := &ProcFault{PID: 7, Err: denied}
	if msg := pf.Error(); !strings.Contains(msg, "process 7") || !strings.Contains(msg, "denied") {
		t.Fatalf("proc fault message %q", msg)
	}
}
