package oslite

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"indra/internal/checkpoint"
	"indra/internal/checkpoint/baseline"
)

// hookCall is one checkpoint hook invocation: PreStore or PreLoad at va.
type hookCall struct {
	store bool
	va    uint32
}

func (c hookCall) String() string {
	if c.store {
		return fmt.Sprintf("PreStore(%#x)", c.va)
	}
	return fmt.Sprintf("PreLoad(%#x)", c.va)
}

// hookRecorder is a checkpoint.Scheme that only records its hook calls.
// A hook loop that never ends panics at a million calls instead of
// exhausting memory.
type hookRecorder struct {
	granule uint32
	calls   []hookCall
}

func (r *hookRecorder) Name() string                  { return "recorder" }
func (r *hookRecorder) IncrementGTS()                 {}
func (r *hookRecorder) Fail() uint64                  { return 0 }
func (r *hookRecorder) Granule() uint32               { return r.granule }
func (r *hookRecorder) Overhead() checkpoint.Overhead { return checkpoint.Overhead{} }
func (r *hookRecorder) PreStore(va uint32) uint64     { return r.record(true, va) }
func (r *hookRecorder) PreLoad(va uint32) uint64      { return r.record(false, va) }

func (r *hookRecorder) record(store bool, va uint32) uint64 {
	if len(r.calls) == 1<<20 {
		panic("runaway hook loop")
	}
	r.calls = append(r.calls, hookCall{store, va})
	return 0
}

// referenceHooks is the hook loop each buffer syscall ran on its own
// before the guest boundary: right on every legal range, which is all
// the twin asks of it.
func referenceHooks(store bool, va, n, g uint32) []hookCall {
	var out []hookCall
	for a := va &^ (g - 1); a < va+n; a += g {
		out = append(out, hookCall{store, a})
	}
	return out
}

// wantPageFault checks that err is a process fault carrying a page
// fault with the given direction.
func wantPageFault(t *testing.T, what string, err error, write bool) {
	t.Helper()
	var proc *ProcFault
	var pf *PageFault
	if !errors.As(err, &proc) || !errors.As(proc.Err, &pf) {
		t.Errorf("%s: got %v, want a process page fault", what, err)
		return
	}
	if pf.Write != write {
		t.Errorf("%s: %v, want write=%v", what, err, write)
	}
}

// Twin of the guest boundary's hook loop against the loop it replaced:
// over seeded legal ranges, a recv (the kernel writes) and a send (it
// reads) make exactly the reference calls at every granule, and a
// range that wraps, runs into an unmapped page or is empty makes none.
func TestGuestHooksMatchReferenceLoop(t *testing.T) {
	for _, g := range []uint32{4, 32, PageBytes} {
		net := &fakeNet{}
		k := testKernel(t, net, nil)
		rec := &hookRecorder{granule: g}
		p := spawnWith(t, k, func(checkpoint.Memory) checkpoint.Scheme { return rec })
		lo, hi := p.Stack().Lo, p.Stack().Hi
		cpu := &fakeCPU{}
		copyRange := func(store bool, va, n uint32) error {
			rec.calls = rec.calls[:0]
			num := SysSend
			if store {
				num = SysRecv
				net.reqs = append(net.reqs, Request{ID: 1, Payload: make([]byte, n)})
			}
			cpu.SetReg(1, va)
			cpu.SetReg(2, n)
			_, err := k.Syscall(p, cpu, num)
			net.sent = nil
			return err
		}

		rng := rand.New(rand.NewSource(int64(g)))
		for i := 0; i < 400; i++ {
			store := i%2 == 0
			va := lo + uint32(rng.Intn(int(hi-lo)))
			n := 1 + uint32(rng.Intn(int(hi-va)))
			if i%4 < 2 {
				n = 1 + uint32(rng.Intn(2*int(g)+64)) // short, often granule-crossing
				n = min(n, hi-va)
			}
			if err := copyRange(store, va, n); err != nil {
				t.Fatalf("granule %d: [%#x, +%d): %v", g, va, n, err)
			}
			if want := referenceHooks(store, va, n, g); !slices.Equal(rec.calls, want) {
				t.Fatalf("granule %d: [%#x, +%d) store=%v made %d calls %v, want %d %v",
					g, va, n, store, len(rec.calls), rec.calls, len(want), want)
			}
		}

		for _, bad := range []struct {
			name  string
			va, n uint32
		}{
			{"wraps past 2^32", 0xFFFF_FFF0, 0x20},
			{"ends at 2^32", 0xFFFF_FFE0, 0x20},
			{"ends in the top granule", 0xFFFF_FFE0, 0x10},
			{"runs off the stack", hi - 8, 16},
			{"starts below the stack", lo - 8, 16},
			{"empty", lo + 1, 0},
		} {
			for _, store := range []bool{true, false} {
				err := copyRange(store, bad.va, bad.n)
				what := fmt.Sprintf("granule %d, %s, store=%v", g, bad.name, store)
				if len(rec.calls) != 0 {
					t.Errorf("%s: hooks ran: %v", what, rec.calls)
				}
				if bad.n == 0 {
					if err != nil {
						t.Errorf("%s: %v", what, err)
					}
					continue
				}
				wantPageFault(t, what, err, store)
			}
		}
	}
}

// Each of the seven buffer syscalls passes its buffer through the
// guest boundary: a legal buffer across a page makes the reference
// hook calls in the syscall's direction, and one that runs off the
// stack faults with no hook call and nothing moved.
func TestBufferSyscallsShareGuestBoundary(t *testing.T) {
	net := &fakeNet{}
	k := testKernel(t, net, nil)
	rec := &hookRecorder{granule: 32}
	p := spawnWith(t, k, func(checkpoint.Memory) checkpoint.Scheme { return rec })
	const n = 2 * SectorBytes
	src := bytes.Repeat([]byte{0xEE}, n)
	k.WriteFile("f", src)
	f, _ := k.FS().Lookup("f")
	d := p.fds.insert(f, false)
	k.disk.HostWriteSector(3, src)
	k.disk.HostWriteSector(4, src)
	lo, hi := p.Stack().Lo, p.Stack().Hi
	if err := p.AS.WriteBytes(lo, bytes.Repeat([]byte{0x11}, int(hi-lo))); err != nil {
		t.Fatal(err)
	}
	cpu := &fakeCPU{}

	legal, bad := lo+PageBytes-SectorBytes, hi-SectorBytes
	for _, sc := range []struct {
		num   int
		store bool // the kernel writes the buffer
		regs  func(va uint32) []uint32
	}{
		{SysRecv, true, func(va uint32) []uint32 { return []uint32{va, n} }},
		{SysSend, false, func(va uint32) []uint32 { return []uint32{va, n} }},
		{SysRead, true, func(va uint32) []uint32 { return []uint32{uint32(d.FD), va, n} }},
		{SysWrite, false, func(va uint32) []uint32 { return []uint32{uint32(d.FD), va, n} }},
		{SysLog, false, func(va uint32) []uint32 { return []uint32{va, n} }},
		{SysDiskRd, true, func(va uint32) []uint32 { return []uint32{3, va, n / SectorBytes} }},
		{SysDiskWr, false, func(va uint32) []uint32 { return []uint32{3, va, n / SectorBytes} }},
	} {
		for _, va := range []uint32{legal, bad} {
			net.reqs = append(net.reqs, Request{ID: 1, Payload: src})
			d.Offset = 0
			for i, v := range sc.regs(va) {
				cpu.SetReg(i+1, v)
			}
			rec.calls = rec.calls[:0]
			sent, log, length, sectors := len(net.sent), k.auditLog.Length, f.Length, k.disk.SectorCount()
			_, err := k.Syscall(p, cpu, sc.num)
			what := fmt.Sprintf("syscall %d at %#x", sc.num, va)
			if va == legal {
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if want := referenceHooks(sc.store, va, n, 32); !slices.Equal(rec.calls, want) {
					t.Errorf("%s made %v, want %v", what, rec.calls, want)
				}
				continue
			}
			wantPageFault(t, what, err, sc.store)
			if len(rec.calls) != 0 {
				t.Errorf("%s: hooks ran: %v", what, rec.calls)
			}
			mapped := make([]byte, hi-bad)
			p.AS.ReadBytes(bad, mapped)
			if !bytes.Equal(mapped, bytes.Repeat([]byte{0x11}, len(mapped))) ||
				len(net.sent) != sent || k.auditLog.Length != log || f.Length != length || k.disk.SectorCount() != sectors {
				t.Errorf("%s moved bytes", what)
			}
		}
	}
}

// A recv whose buffer starts 8 bytes before the end of the data page
// runs into the unmapped guard page: the process faults, and the
// kernel writes none of the buffer, not even its mapped first half.
func TestRecvPastDataPageWritesNothing(t *testing.T) {
	net := &fakeNet{reqs: []Request{{ID: 1, Payload: bytes.Repeat([]byte{0xAB}, 16)}}}
	k := testKernel(t, net, nil)
	p := spawnTest(t, k, false)
	end := p.Prog.DataBase + PageBytes
	if !p.AS.Mapped(end-1) || p.AS.Mapped(end) {
		t.Fatalf("data page does not end at %#x", end)
	}
	cpu := &fakeCPU{}
	cpu.SetReg(1, end-8)
	cpu.SetReg(2, 16)
	_, err := k.Syscall(p, cpu, SysRecv)
	got := make([]byte, 8)
	if err := p.AS.ReadBytes(end-8, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Errorf("the faulting recv wrote %x into the data page", got)
	}
	wantPageFault(t, "recv across the data page's end", err, true)
}

// Under page-granular software checkpointing, a two-sector disk read
// into stack.Lo+0xE00 lands on two pages; a rollback restores both.
func TestPageCopyDiskReadRollsBackBothPages(t *testing.T) {
	k := testKernel(t, nil, nil)
	p := spawnWith(t, k, func(m checkpoint.Memory) checkpoint.Scheme {
		return baseline.NewSoftwarePageCopy(checkpoint.DefaultConfig(), m, nil)
	})
	buf := p.Stack().Lo + 0xE00
	before := bytes.Repeat([]byte{0x5A}, 2*SectorBytes)
	if err := p.AS.WriteBytes(buf, before); err != nil {
		t.Fatal(err)
	}
	k.disk.HostWriteSector(7, bytes.Repeat([]byte{0xD7}, SectorBytes))
	k.disk.HostWriteSector(8, bytes.Repeat([]byte{0xD8}, SectorBytes))
	cpu := &fakeCPU{}
	cpu.SetReg(1, 7)
	cpu.SetReg(2, buf)
	cpu.SetReg(3, 2)
	if _, err := k.Syscall(p, cpu, SysDiskRd); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*SectorBytes)
	p.AS.ReadBytes(buf, got)
	if got[0] != 0xD7 || got[SectorBytes] != 0xD8 {
		t.Fatalf("disk read left %#x, %#x", got[0], got[SectorBytes])
	}

	p.Ckpt.Fail()
	p.AS.ReadBytes(buf, got)
	for i, page := range []string{"first", "second"} {
		if half := got[i*SectorBytes : (i+1)*SectorBytes]; !bytes.Equal(half, before[:SectorBytes]) {
			t.Errorf("%s page holds %#x after the rollback, want %#x", page, half[0], before[0])
		}
	}
}
