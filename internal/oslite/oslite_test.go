package oslite

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"indra/internal/asm"
	"indra/internal/checkpoint"
	"indra/internal/device"
	"indra/internal/mem"
	"indra/internal/watchdog"
)

// --- test doubles -----------------------------------------------------

// fakeCPU implements the CPU interface for direct syscall tests.
type fakeCPU struct {
	regs [16]uint32
	pc   uint32
}

func (c *fakeCPU) Reg(i int) uint32       { return c.regs[i] }
func (c *fakeCPU) SetReg(i int, v uint32) { c.regs[i] = v }
func (c *fakeCPU) PC() uint32             { return c.pc }
func (c *fakeCPU) SetPC(v uint32)         { c.pc = v }

// fakeNet is a scripted NetPort.
type fakeNet struct {
	reqs []Request
	sent [][]byte
	next int
}

func (n *fakeNet) Recv(now uint64) (Request, bool) {
	if n.next >= len(n.reqs) {
		return Request{}, false
	}
	r := n.reqs[n.next]
	n.next++
	return r, true
}

func (n *fakeNet) Send(id uint64, payload []byte, now uint64) {
	n.sent = append(n.sent, append([]byte(nil), payload...))
}

// fakeHooks records lifecycle callbacks.
type fakeHooks struct {
	syncs   int
	starts  int
	dones   int
	syncErr error
}

func (h *fakeHooks) SyncPoint(p *Process) (uint64, error) {
	h.syncs++
	return 10, h.syncErr
}
func (h *fakeHooks) RequestStart(p *Process, cpu CPU)  { h.starts++ }
func (h *fakeHooks) RequestDone(p *Process, id uint64) { h.dones++ }
func (h *fakeHooks) Now() uint64                       { return 42 }
func (h *fakeHooks) CoreID() int                       { return 1 }

// --- address space ----------------------------------------------------

func TestAddressSpace(t *testing.T) {
	phys := mem.NewPhysical(16 * PageBytes)
	as := NewAddressSpace(phys)
	as.Map(0x10000, 2*PageBytes, PermR|PermW)

	if !as.Mapped(0x10000) || as.Mapped(0x20000) {
		t.Fatal("mapped predicate")
	}
	pa, perm, err := as.Translate(0x10004)
	if err != nil || pa != 2*PageBytes+4 || perm != PermR|PermW {
		t.Fatalf("translate: pa=%#x perm=%v err=%v", pa, perm, err)
	}
	if _, _, err := as.Translate(0x99999); err == nil {
		t.Fatal("unmapped translate succeeded")
	}
	var pf *PageFault
	_, _, err = as.Translate(0x99999)
	if !errors.As(err, &pf) {
		t.Fatalf("error type %T", err)
	}

	if err := as.Write32(0x10000, 0xABCD); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.Read32(0x10000); v != 0xABCD {
		t.Fatal("rw32 through translation")
	}
	if err := as.Write8(0x10010, 0x7F); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.Read8(0x10010); v != 0x7F {
		t.Fatal("rw8")
	}

	frame, ok := as.Unmap(0x10000)
	if !ok || frame != 2*PageBytes {
		t.Fatal("unmap")
	}
	if as.Mapped(0x10000) {
		t.Fatal("still mapped")
	}
}

func TestAddressSpaceCrossPageBulk(t *testing.T) {
	phys := mem.NewPhysical(16 * PageBytes)
	as := NewAddressSpace(phys)
	// Three virtually-contiguous pages on non-contiguous frames.
	as.Map(0x10000, 5*PageBytes, PermR|PermW)
	as.Map(0x10000+PageBytes, 2*PageBytes, PermR|PermW)
	as.Map(0x10000+2*PageBytes, 7*PageBytes, PermR|PermW)

	data := make([]byte, PageBytes+100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	start := uint32(0x10000 + PageBytes - 50)
	if err := as.WriteBytes(start, data); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(data))
	if err := as.ReadBytes(start, out); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("cross-page byte %d", i)
		}
	}
	// Bulk access touching an unmapped page fails cleanly.
	if err := as.WriteBytes(0x10000+3*PageBytes-4, make([]byte, 64)); err == nil {
		t.Fatal("bulk write into unmapped page succeeded")
	}
}

func TestAddressSpaceLineInterface(t *testing.T) {
	phys := mem.NewPhysical(4 * PageBytes)
	as := NewAddressSpace(phys)
	as.Map(0, 0, PermR|PermW)
	line := make([]byte, 32)
	line[0] = 0xEE
	as.WriteLine(64, line)
	got := make([]byte, 32)
	as.ReadLine(64, got)
	if got[0] != 0xEE {
		t.Fatal("line rw")
	}
}

func TestPermString(t *testing.T) {
	if (PermR|PermX).String() != "r-x" || Perm(0).String() != "---" {
		t.Fatal("perm strings")
	}
}

// --- kernel & processes ------------------------------------------------

const testProgSrc = `
_start:
  halt
`

func testKernel(t *testing.T, net NetPort, hooks Hooks) *Kernel {
	t.Helper()
	phys := mem.NewPhysical(8 << 20)
	if net == nil {
		net = &fakeNet{}
	}
	if hooks == nil {
		hooks = &fakeHooks{}
	}
	return NewKernel(phys, 1<<20, 8<<20, net, hooks)
}

func spawnTest(t *testing.T, k *Kernel, withCkpt bool) *Process {
	t.Helper()
	prog, err := asm.Assemble(testProgSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SpawnConfig{Name: "t", Prog: prog}
	if withCkpt {
		cfg.NewScheme = func(m checkpoint.Memory) checkpoint.Scheme {
			e, err := checkpoint.NewEngine(checkpoint.DefaultConfig(), m, nil)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
	}
	p, err := k.Spawn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSpawnLayout(t *testing.T) {
	k := testKernel(t, nil, nil)
	p := spawnTest(t, k, false)

	// Text is mapped R+X and holds the program.
	if p.AS.PermAt(p.Prog.TextBase) != PermR|PermX {
		t.Fatalf("text perm %v", p.AS.PermAt(p.Prog.TextBase))
	}
	w, err := p.AS.Read32(p.Prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if w == 0 {
		t.Fatal("entry instruction missing")
	}
	// Stack mapped R+W below the top.
	ctx := k.InitialContext(p)
	if ctx.PC != p.Prog.Entry {
		t.Fatal("initial pc")
	}
	sp := ctx.Regs[14]
	if p.AS.PermAt(sp) != PermR|PermW {
		t.Fatalf("stack perm %v", p.AS.PermAt(sp))
	}
	if got, ok := k.Process(p.PID); !ok || got != p {
		t.Fatal("process registry")
	}
}

func TestSyscallRecvSend(t *testing.T) {
	net := &fakeNet{reqs: []Request{{ID: 7, Payload: []byte("hello")}}}
	hooks := &fakeHooks{}
	k := testKernel(t, net, hooks)
	p := spawnTest(t, k, true)
	cpu := &fakeCPU{}

	buf := p.Prog.DataBase
	cpu.SetReg(1, buf)
	cpu.SetReg(2, 64)
	if _, err := k.Syscall(p, cpu, SysRecv); err != nil {
		t.Fatal(err)
	}
	if cpu.Reg(1) != 5 {
		t.Fatalf("recv len %d", cpu.Reg(1))
	}
	if hooks.starts != 1 || hooks.syncs != 1 {
		t.Fatalf("hooks: %+v", hooks)
	}
	got := make([]byte, 5)
	p.AS.ReadBytes(buf, got)
	if string(got) != "hello" {
		t.Fatalf("payload %q", got)
	}
	if p.CurrentReq != 7 {
		t.Fatal("current request id")
	}

	cpu.SetReg(1, buf)
	cpu.SetReg(2, 5)
	if _, err := k.Syscall(p, cpu, SysSend); err != nil {
		t.Fatal(err)
	}
	if hooks.dones != 1 || len(net.sent) != 1 || string(net.sent[0]) != "hello" {
		t.Fatalf("send: %+v %q", hooks, net.sent)
	}
	if p.CurrentReq != 0 {
		t.Fatal("request not cleared")
	}

	// Stream exhausted: recv halts the process and returns -1.
	cpu.SetReg(1, buf)
	cpu.SetReg(2, 64)
	if _, err := k.Syscall(p, cpu, SysRecv); err != nil {
		t.Fatal(err)
	}
	if cpu.Reg(1) != ^uint32(0) || !p.Halted {
		t.Fatal("drained recv should halt")
	}
}

func TestSyscallSyncViolationAborts(t *testing.T) {
	hooks := &fakeHooks{syncErr: errors.New("violation")}
	k := testKernel(t, nil, hooks)
	p := spawnTest(t, k, false)
	cpu := &fakeCPU{}
	_, err := k.Syscall(p, cpu, SysYield)
	var pf *ProcFault
	if !errors.As(err, &pf) {
		t.Fatalf("want ProcFault, got %v", err)
	}
}

func TestSyscallFiles(t *testing.T) {
	k := testKernel(t, nil, nil)
	p := spawnTest(t, k, false)
	cpu := &fakeCPU{}

	// Write a path string into data memory.
	path := p.Prog.DataBase
	p.AS.WriteBytes(path, []byte("out.txt\x00"))
	cpu.SetReg(1, path)
	cpu.SetReg(2, 0)
	if _, err := k.Syscall(p, cpu, SysOpen); err != nil {
		t.Fatal(err)
	}
	fd := cpu.Reg(1)
	if fd < 3 {
		t.Fatalf("fd %d", fd)
	}

	// Write 4 bytes from memory to the file.
	bufVA := path + 64
	p.AS.WriteBytes(bufVA, []byte("data"))
	cpu.SetReg(1, fd)
	cpu.SetReg(2, bufVA)
	cpu.SetReg(3, 4)
	if _, err := k.Syscall(p, cpu, SysWrite); err != nil {
		t.Fatal(err)
	}
	f, ok := k.FS().Lookup("out.txt")
	if !ok || string(f.Data) != "data" {
		t.Fatalf("file content %q", f.Data)
	}

	// Read it back through a fresh descriptor.
	cpu.SetReg(1, path)
	cpu.SetReg(2, 0)
	k.Syscall(p, cpu, SysOpen)
	fd2 := cpu.Reg(1)
	cpu.SetReg(1, fd2)
	cpu.SetReg(2, bufVA+16)
	cpu.SetReg(3, 64)
	if _, err := k.Syscall(p, cpu, SysRead); err != nil {
		t.Fatal(err)
	}
	if cpu.Reg(1) != 4 {
		t.Fatalf("read %d bytes", cpu.Reg(1))
	}

	// Close; double close is a process fault.
	cpu.SetReg(1, fd)
	if _, err := k.Syscall(p, cpu, SysClose); err != nil {
		t.Fatal(err)
	}
	cpu.SetReg(1, fd)
	if _, err := k.Syscall(p, cpu, SysClose); err == nil {
		t.Fatal("double close succeeded")
	}
}

func TestSyscallSbrkAndResourceRollback(t *testing.T) {
	k := testKernel(t, nil, nil)
	p := spawnTest(t, k, false)
	cpu := &fakeCPU{}

	snap := p.SnapshotResources()
	framesBefore := k.Allocator().InUse()

	cpu.SetReg(1, 2*PageBytes)
	if _, err := k.Syscall(p, cpu, SysSbrk); err != nil {
		t.Fatal(err)
	}
	oldBrk := cpu.Reg(1)
	if p.HeapBrk() != oldBrk+2*PageBytes {
		t.Fatal("brk")
	}
	// New heap pages are mapped and writable.
	if err := p.AS.Write32(oldBrk, 123); err != nil {
		t.Fatal(err)
	}

	// Open a file and spawn a child after the snapshot.
	path := p.Prog.DataBase
	p.AS.WriteBytes(path, []byte("f\x00"))
	cpu.SetReg(1, path)
	cpu.SetReg(2, 0)
	k.Syscall(p, cpu, SysOpen)
	fdAfter := int(cpu.Reg(1))
	k.Syscall(p, cpu, SysSpawn)
	child := int(cpu.Reg(1))

	// Roll back: heap trimmed, frames freed, fd closed, child killed.
	p.RestoreResources(snap)
	if p.HeapBrk() != snap.HeapBrk {
		t.Fatal("heap brk not restored")
	}
	if p.AS.Mapped(oldBrk) {
		t.Fatal("heap page still mapped")
	}
	if k.Allocator().InUse() != framesBefore {
		t.Fatalf("frames leaked: %d vs %d", k.Allocator().InUse(), framesBefore)
	}
	for _, fd := range p.OpenFDs() {
		if fd == fdAfter {
			t.Fatal("descriptor opened after snapshot survived")
		}
	}
	if !k.Killed(child) {
		t.Fatal("child spawned after snapshot survived")
	}
	if len(p.Children()) != 0 {
		t.Fatal("children list not trimmed")
	}
}

func TestResourceRollbackKeepsPriorState(t *testing.T) {
	k := testKernel(t, nil, nil)
	p := spawnTest(t, k, false)
	cpu := &fakeCPU{}

	// Open a file BEFORE the snapshot: must survive rollback.
	path := p.Prog.DataBase
	p.AS.WriteBytes(path, []byte("keep\x00"))
	cpu.SetReg(1, path)
	cpu.SetReg(2, 0)
	k.Syscall(p, cpu, SysOpen)
	fdBefore := int(cpu.Reg(1))
	k.Syscall(p, cpu, SysSpawn)
	childBefore := int(cpu.Reg(1))

	snap := p.SnapshotResources()
	p.RestoreResources(snap)

	found := false
	for _, fd := range p.OpenFDs() {
		if fd == fdBefore {
			found = true
		}
	}
	if !found {
		t.Fatal("descriptor opened before snapshot was closed")
	}
	if k.Killed(childBefore) {
		t.Fatal("pre-snapshot child killed")
	}
}

func TestAuditLogNeverRolledBack(t *testing.T) {
	k := testKernel(t, nil, nil)
	p := spawnTest(t, k, false)
	cpu := &fakeCPU{}
	bufVA := p.Prog.DataBase
	p.AS.WriteBytes(bufVA, []byte("evil request"))
	cpu.SetReg(1, bufVA)
	cpu.SetReg(2, 12)
	if _, err := k.Syscall(p, cpu, SysLog); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(k.AuditLog().Data), "evil request") {
		t.Fatal("audit entry missing")
	}
}

func TestSyscallMisc(t *testing.T) {
	k := testKernel(t, nil, nil)
	p := spawnTest(t, k, false)
	cpu := &fakeCPU{}
	if _, err := k.Syscall(p, cpu, SysGetPID); err != nil || cpu.Reg(1) != uint32(p.PID) {
		t.Fatal("getpid")
	}
	if _, err := k.Syscall(p, cpu, SysExit); err != nil || !p.Halted {
		t.Fatal("exit")
	}
	if _, err := k.Syscall(p, cpu, 999); err == nil {
		t.Fatal("bad syscall number accepted")
	}
}

func TestCopyTrackedUsesGranule(t *testing.T) {
	net := &fakeNet{reqs: []Request{{ID: 1, Payload: make([]byte, 100)}}}
	k := testKernel(t, net, nil)
	p := spawnTest(t, k, true)
	cpu := &fakeCPU{}
	cpu.SetReg(1, p.Prog.DataBase)
	cpu.SetReg(2, 512)
	if _, err := k.Syscall(p, cpu, SysRecv); err != nil {
		t.Fatal(err)
	}
	eng := p.Ckpt.(*checkpoint.Engine)
	// 100 bytes over 32B granules from an aligned base: 4 line backups.
	if got := eng.Stats().LineBackups; got != 4 {
		t.Fatalf("payload copy backed %d lines, want 4", got)
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Lo: 10, Hi: 20}
	if !r.Contains(10) || r.Contains(20) || r.Contains(9) {
		t.Fatal("region bounds")
	}
}

func TestFS(t *testing.T) {
	fs := NewFS()
	fs.Put("a", []byte("x"))
	fs.Create("b")
	if names := fs.Names(); len(names) != 2 || names[0] != "a" {
		t.Fatalf("names %v", names)
	}
	if _, ok := fs.Lookup("missing"); ok {
		t.Fatal("phantom file")
	}
}

func TestSyscallDisk(t *testing.T) {
	k := testKernel(t, nil, nil)
	phys := k.phys
	wd := watchdog.New(watchdog.Config{Privileged: watchdog.CoreMask(1)})
	k.AttachDisk(device.NewDisk(phys, wd, nil))
	p := spawnTest(t, k, true)
	cpu := &fakeCPU{}

	// 512-aligned buffer inside the data page.
	buf := (p.Prog.DataBase + 511) &^ 511
	p.AS.WriteBytes(buf, []byte("persist me"))

	cpu.SetReg(1, 3) // sector
	cpu.SetReg(2, buf)
	cpu.SetReg(3, 1)
	if _, err := k.Syscall(p, cpu, SysDiskWr); err != nil {
		t.Fatal(err)
	}
	if got := k.Disk().Peek(3); string(got[:10]) != "persist me" {
		t.Fatalf("disk content %q", got[:10])
	}

	// Clobber memory, read the sector back.
	p.AS.WriteBytes(buf, make([]byte, 16))
	cpu.SetReg(1, 3)
	cpu.SetReg(2, buf)
	cpu.SetReg(3, 1)
	if _, err := k.Syscall(p, cpu, SysDiskRd); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, 10)
	p.AS.ReadBytes(buf, back)
	if string(back) != "persist me" {
		t.Fatalf("readback %q", back)
	}
	// The DMA landing zone is checkpoint-tracked: the read dirtied lines.
	eng := p.Ckpt.(*checkpoint.Engine)
	if eng.Stats().LineBackups == 0 {
		t.Fatal("disk read not tracked by the checkpoint engine")
	}

	// Geometry errors are process faults.
	cpu.SetReg(1, 0)
	cpu.SetReg(2, buf+4) // unaligned
	cpu.SetReg(3, 1)
	if _, err := k.Syscall(p, cpu, SysDiskRd); err == nil {
		t.Fatal("unaligned buffer accepted")
	}
	cpu.SetReg(2, buf)
	cpu.SetReg(3, 99) // too many sectors
	if _, err := k.Syscall(p, cpu, SysDiskWr); err == nil {
		t.Fatal("oversized transfer accepted")
	}
}

// The disk keeps full sectors as views of a file's bytes, so a write
// into the middle of a backed file must copy: the bytes first passed
// to WriteFile (a memoized program image, shared across chips) and the
// sectors flushed before the write keep their contents.
func TestBackedFileWriteLeavesSharedBytes(t *testing.T) {
	k := testKernel(t, nil, nil)
	disk := device.NewDisk(k.phys, watchdog.New(watchdog.Config{}), nil)
	k.FS().Back(disk, 16)
	p := spawnTest(t, k, false)
	text := make([]byte, 3*SectorBytes)
	for i := range text {
		text[i] = byte(i)
	}
	want := bytes.Clone(text)
	k.WriteFile("bin/t", text)
	ext, _ := k.FS().Extent("bin/t")
	var flushed [][]byte
	for i := uint32(0); i < ext.Count; i++ {
		flushed = append(flushed, disk.Peek(ext.Start+i))
	}

	// A descriptor on the file as WriteFile left it, moved to byte 700
	// by a read, then a 100-byte write.
	f, _ := k.FS().Lookup("bin/t")
	d := p.fds.insert(f, false)
	cpu := &fakeCPU{}
	bufVA := p.Prog.DataBase
	cpu.SetReg(1, uint32(d.FD))
	cpu.SetReg(2, bufVA)
	cpu.SetReg(3, 700)
	if _, err := k.Syscall(p, cpu, SysRead); err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0xEE}, 100)
	p.AS.WriteBytes(bufVA, patch)
	cpu.SetReg(1, uint32(d.FD))
	cpu.SetReg(2, bufVA)
	cpu.SetReg(3, uint32(len(patch)))
	if _, err := k.Syscall(p, cpu, SysWrite); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(text, want) {
		t.Fatal("the write changed the bytes passed to WriteFile")
	}
	if got := append(want[:700:700], patch...); !bytes.Equal(f.Data, got) {
		t.Fatalf("file holds %d bytes, want the first 700 then the patch", len(f.Data))
	}
	// Sector 0 is flushed again with the same bytes, sector 1 with the
	// patch, and sector 2 lies past the new end and is not rewritten.
	for _, i := range []uint32{0, 2} {
		if !bytes.Equal(disk.Peek(ext.Start+i), flushed[i]) {
			t.Errorf("sector %d changed", i)
		}
	}
	sec1 := make([]byte, SectorBytes)
	copy(sec1, f.Data[SectorBytes:])
	if !bytes.Equal(disk.Peek(ext.Start+1), sec1) {
		t.Error("sector 1 does not hold the patched bytes")
	}
}

func TestDiskSyscallWithoutDisk(t *testing.T) {
	k := testKernel(t, nil, nil)
	p := spawnTest(t, k, false)
	cpu := &fakeCPU{}
	cpu.SetReg(1, 0)
	cpu.SetReg(2, p.Prog.DataBase)
	cpu.SetReg(3, 1)
	if _, err := k.Syscall(p, cpu, SysDiskRd); err == nil {
		t.Fatal("diskless platform accepted a disk syscall")
	}
}

func TestMessagesNeverRolledBack(t *testing.T) {
	k := testKernel(t, nil, nil)
	p := spawnTest(t, k, false)
	cpu := &fakeCPU{}

	snap := p.SnapshotResources()
	cpu.SetReg(1, 9)   // queue
	cpu.SetReg(2, 111) // word
	if _, err := k.Syscall(p, cpu, SysMsgSend); err != nil {
		t.Fatal(err)
	}
	// A resource rollback does not touch IPC state (Section 3.3.3).
	p.RestoreResources(snap)
	if q := k.MessageQueue(9); len(q) != 1 || q[0] != 111 {
		t.Fatalf("message rolled back: %v", q)
	}
	cpu.SetReg(1, 9)
	if _, err := k.Syscall(p, cpu, SysMsgRecv); err != nil {
		t.Fatal(err)
	}
	if cpu.Reg(1) != 111 {
		t.Fatalf("recv %d", cpu.Reg(1))
	}
	cpu.SetReg(1, 9)
	k.Syscall(p, cpu, SysMsgRecv)
	if cpu.Reg(1) != ^uint32(0) {
		t.Fatal("empty queue should return -1")
	}
}

func TestSpawnLayoutValidation(t *testing.T) {
	k := testKernel(t, nil, nil)
	// A text section that overruns the data base must be rejected.
	big, err := asm.AssembleAt("_start: halt\n", 0x10000, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn(SpawnConfig{Name: "bad", Prog: big}); err == nil {
		t.Fatal("overlapping layout accepted")
	}
}
