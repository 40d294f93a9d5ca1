package oslite

import (
	"fmt"
	"slices"

	"indra/internal/asm"
	"indra/internal/checkpoint"
	"indra/internal/device"
	"indra/internal/mem"
)

// Syscall numbers (the SYS instruction's 16-bit immediate).
const (
	SysExit    = 1  // exit(code)
	SysRecv    = 2  // recv_request(buf, maxlen) -> len | -1 when drained
	SysSend    = 3  // send_response(buf, len)
	SysSbrk    = 4  // sbrk(n) -> old break
	SysOpen    = 5  // open(path, append) -> fd
	SysClose   = 6  // close(fd)
	SysRead    = 7  // read(fd, buf, len) -> n
	SysWrite   = 8  // write(fd, buf, len) -> n
	SysSpawn   = 9  // spawn() -> child pid (recorded; child not scheduled)
	SysLog     = 10 // log(buf, len): append to audit log, never rolled back
	SysGetPID  = 11 // getpid() -> pid
	SysYield   = 12 // yield()
	SysSetjmp  = 13 // register_longjmp_target(pc, sp)
	SysDynCode = 14 // declare_dyncode(start, len)
	SysDiskRd  = 15 // disk_read(sector, buf, nsectors) -> nsectors
	SysDiskWr  = 16 // disk_write(sector, buf, nsectors) -> nsectors
	SysMsgSend = 17 // msg_send(queue, word): IPC, never rolled back
	SysMsgRecv = 18 // msg_recv(queue) -> word | -1 when empty
)

// MaxDiskSectors bounds one DMA request.
const MaxDiskSectors = 8

// Syscall cost model, in core cycles: a trap round-trip plus per-byte
// copy costs for calls that move payload across the user/kernel line.
const (
	sysBaseCycles    = 150
	sysPerByteCycles = 1 // amortised copy cost per payload byte
)

// CPU is the kernel's view of the core executing a syscall. The cpu
// package's Core implements it; keeping the interface here avoids an
// import cycle and mirrors the hardware/OS boundary.
type CPU interface {
	Reg(i int) uint32
	SetReg(i int, v uint32)
	PC() uint32
	SetPC(v uint32)
}

// Request is one network service request delivered to a server.
type Request struct {
	ID      uint64
	Payload []byte
}

// NetPort connects a server process to the simulated network
// (internal/netsim provides the implementation). Times are core cycles.
type NetPort interface {
	// Recv returns the next pending request, or ok=false when the
	// request stream is exhausted.
	Recv(now uint64) (req Request, ok bool)
	// Send delivers a response for request id.
	Send(id uint64, payload []byte, now uint64)
}

// Hooks is implemented by the chip layer: it couples syscall execution
// to the trace-FIFO synchronisation rule (Section 3.2.5: system calls
// and I/O stall until all previous instructions are verified) and to the
// recovery manager's request lifecycle.
type Hooks interface {
	// SyncPoint drains and verifies outstanding trace records; returns
	// the core stall cycles incurred. A non-nil error means verification
	// detected a violation: the system call must abort (corrupted state
	// must not reach I/O) and the caller reports the process failed.
	SyncPoint(p *Process) (uint64, error)
	// RequestStart is invoked at SysRecv before the payload is copied
	// in: the recovery manager snapshots context/resources and applies
	// its GTS policy.
	RequestStart(p *Process, cpu CPU)
	// RequestDone is invoked when the response for req has been sent.
	RequestDone(p *Process, reqID uint64)
	// Now returns the current core time for network timestamping.
	Now() uint64
	// CoreID identifies the hardware core executing the syscall, so
	// DMA descriptors carry the right originator for watchdog checks.
	CoreID() int
}

// ProcFault is a fault attributable to the running process (bad
// pointer from a corrupted state, illegal descriptor misuse under
// attack, ...). The chip treats it like a crash: recovery is invoked.
type ProcFault struct {
	PID int
	Err error
}

func (f *ProcFault) Error() string { return fmt.Sprintf("process %d fault: %v", f.PID, f.Err) }

// Unwrap returns the fault's cause, such as a *PageFault.
func (f *ProcFault) Unwrap() error { return f.Err }

// Kernel is one resurrectee OS instance: it owns the processes, the
// file system and the frame allocator for its watchdog partition.
type Kernel struct {
	phys    *mem.Physical
	alloc   *mem.FrameAllocator
	fs      *FS
	procs   map[int]*Process
	nextPID int
	net     NetPort
	hooks   Hooks
	disk    *device.Disk
	// msgs are the kernel's IPC message queues; per Section 3.3.3 they
	// are never rolled back.
	msgs map[uint32][]uint32
	// auditLog receives SysLog output; it survives recovery by design.
	auditLog *File
}

// NewKernel creates a kernel over the physical memory region
// [regionLo, regionHi) — the partition the resurrector assigned to this
// resurrectee during boot — with its file system on disk.
func NewKernel(phys *mem.Physical, regionLo, regionHi uint32, disk *device.Disk, net NetPort, hooks Hooks) *Kernel {
	fs := newFS(disk)
	return &Kernel{
		phys:     phys,
		alloc:    mem.NewFrameAllocator(regionLo, regionHi),
		fs:       fs,
		procs:    make(map[int]*Process),
		nextPID:  100,
		net:      net,
		hooks:    hooks,
		disk:     disk,
		msgs:     make(map[uint32][]uint32),
		auditLog: fs.Create("audit.log"),
	}
}

// FS exposes the kernel's file system for workload setup and checks.
func (k *Kernel) FS() *FS { return k.fs }

// WriteFile creates or replaces a file kernel-side (platform/boot path:
// service binaries land in the fs before the service starts). The disk
// keeps the file's full sectors as views of data, not copies, so a
// memoized program image is shared and the caller must not mutate data
// afterwards.
func (k *Kernel) WriteFile(name string, data []byte) {
	k.fs.write(k.fs.Create(name), 0, data)
}

// ReadFile returns a copy of a file's contents as its sectors hold them
// now, tampered or not.
func (k *Kernel) ReadFile(name string) ([]byte, bool) {
	f, ok := k.fs.Lookup(name)
	if !ok {
		return nil, false
	}
	return k.fs.read(f, 0, f.Length), true
}

// diskTransfer implements the disk syscalls: it validates geometry,
// passes the buffer through the guest boundary (a disk read writes
// tracked application memory; a disk write reads it, so it may need
// lazily restored lines first) and issues one DMA descriptor with each
// sector's physical address. A 512-aligned sector never crosses a page.
func (k *Kernel) diskTransfer(p *Process, cpu CPU, write bool) (uint64, error) {
	sector, bufVA, n := cpu.Reg(1), cpu.Reg(2), cpu.Reg(3)
	if n == 0 || n > MaxDiskSectors {
		return 0, &ProcFault{PID: p.PID, Err: fmt.Errorf("bad sector count %d", n)}
	}
	if bufVA%device.SectorBytes != 0 {
		return 0, &ProcFault{PID: p.PID, Err: fmt.Errorf("unaligned disk buffer %#x", bufVA)}
	}
	cycles, err := k.guest(p, bufVA, n*device.SectorBytes, !write)
	if err != nil {
		return cycles, err
	}
	pas := make([]uint32, 0, n)
	p.AS.walk(bufVA, n*device.SectorBytes, func(pa, _, m uint32) {
		for off := uint32(0); off < m; off += device.SectorBytes {
			pas = append(pas, pa+off)
		}
	})
	var c uint64
	if write {
		c, err = k.disk.WriteSectors(k.hooks.CoreID(), sector, pas)
	} else {
		c, err = k.disk.ReadSectors(k.hooks.CoreID(), sector, pas)
	}
	cycles += c
	if err != nil {
		return cycles, &ProcFault{PID: p.PID, Err: err}
	}
	cpu.SetReg(1, n)
	return cycles, nil
}

// Allocator exposes the frame allocator (boot and tests).
func (k *Kernel) Allocator() *mem.FrameAllocator { return k.alloc }

// Process returns a process by PID.
func (k *Kernel) Process(pid int) (*Process, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// Reap retires a process that a fresh image has replaced: its PID
// leaves the process table, and every frame its address space maps is
// zeroed and returned to the allocator. Frames are freed in ascending
// order, so the free list, and every allocation that reuses it, is
// the same from run to run.
func (k *Kernel) Reap(p *Process) {
	delete(k.procs, p.PID)
	frames := make([]uint32, 0, p.AS.Pages())
	p.AS.EachPage(func(_, frame uint32, _ Perm) { frames = append(frames, frame) })
	slices.Sort(frames)
	for _, fr := range frames {
		k.phys.ZeroPage(fr)
		k.alloc.Free(fr)
	}
}

// Layout constants for process images.
const (
	stackTop   = 0x0100_0000 // stacks grow down from just below 16 MB
	stackBytes = 64 << 10
)

// SpawnConfig parameterises process creation.
type SpawnConfig struct {
	Name string
	Prog *asm.Program
	// NewScheme builds the memory backup scheme over the process's
	// address space; nil runs the process unprotected (baseline runs).
	NewScheme func(memory checkpoint.Memory) checkpoint.Scheme
}

// Spawn loads a program image into a fresh address space and returns
// the new process with its initial Context (the chip installs it into a
// core). Text pages map R+X, data pages R+W; a guard gap separates the
// regions, and the stack sits at the top of the address space.
func (k *Kernel) Spawn(cfg SpawnConfig) (*Process, error) {
	prog := cfg.Prog
	if prog.TextEnd() > prog.DataBase {
		return nil, fmt.Errorf("oslite: text section (%#x..%#x) overruns data base %#x",
			prog.TextBase, prog.TextEnd(), prog.DataBase)
	}
	p := &Process{
		PID:  k.nextPID,
		Name: cfg.Name,
		AS:   NewAddressSpace(k.phys),
		Prog: prog,
		fds:  newDescriptorTable(),
		kern: k,
	}
	k.nextPID++

	if err := p.mapRegion(prog.TextBase, pageCount(uint32(len(prog.Text))), PermR|PermX); err != nil {
		return nil, fmt.Errorf("oslite: map text: %w", err)
	}
	if err := p.AS.WriteBytes(prog.TextBase, prog.Text); err != nil {
		return nil, err
	}
	dataSize := pageCount(uint32(len(prog.Data)))
	if dataSize == 0 {
		dataSize = PageBytes
	}
	if err := p.mapRegion(prog.DataBase, dataSize, PermR|PermW); err != nil {
		return nil, fmt.Errorf("oslite: map data: %w", err)
	}
	if err := p.AS.WriteBytes(prog.DataBase, prog.Data); err != nil {
		return nil, err
	}
	p.heap.base = prog.DataBase + dataSize + PageBytes // one guard page
	p.heap.brk = p.heap.base

	p.stack = Region{Lo: stackTop - stackBytes, Hi: stackTop}
	if p.heap.base >= p.stack.Lo {
		return nil, fmt.Errorf("oslite: data/heap (%#x) collides with the stack (%#x)",
			p.heap.base, p.stack.Lo)
	}
	if err := p.mapRegion(p.stack.Lo, stackBytes, PermR|PermW); err != nil {
		return nil, fmt.Errorf("oslite: map stack: %w", err)
	}

	if cfg.NewScheme != nil {
		p.Ckpt = cfg.NewScheme(p.AS)
	}
	k.procs[p.PID] = p
	return p, nil
}

// InitialContext returns the boot register state for a process.
func (k *Kernel) InitialContext(p *Process) Context {
	var ctx Context
	ctx.PC = p.Prog.Entry
	ctx.Regs[14] = p.stack.Hi - 16 // sp, with a small red zone
	ctx.Regs[13] = p.Prog.DataBase // gp
	return ctx
}

// guest is the kernel's one boundary with guest memory: every syscall
// that moves a buffer [va, va+n) of p's memory passes it through here
// before touching it. It checks the range (no wrap past 2^32, every
// touched page mapped), then runs p's checkpoint hook once per granule
// from va's granule base, PreStore when the kernel writes the buffer
// and PreLoad when it reads it, so kernel copies are rollback-protected
// like the application's own accesses. A bad buffer faults p before
// anything is hooked, allocated or copied; after a nil error the
// caller moves the bytes with p.AS.walk. Returns the hooks' cycles.
func (k *Kernel) guest(p *Process, va, n uint32, write bool) (uint64, error) {
	if err := p.AS.check(va, n, write); err != nil {
		return 0, &ProcFault{PID: p.PID, Err: err}
	}
	if p.Ckpt == nil || n == 0 {
		return 0, nil
	}
	var cycles uint64
	g := uint64(p.Ckpt.Granule())
	for a := uint64(va) &^ (g - 1); a < uint64(va)+uint64(n); a += g {
		if write {
			cycles += p.Ckpt.PreStore(uint32(a))
		} else {
			cycles += p.Ckpt.PreLoad(uint32(a))
		}
	}
	return cycles, nil
}

// copyInTracked writes data into the process's memory at va through
// the guest boundary. Returns modelled cycles.
func (k *Kernel) copyInTracked(p *Process, va uint32, data []byte) (uint64, error) {
	cycles, err := k.guest(p, va, uint32(len(data)), true)
	if err != nil {
		return cycles, err
	}
	p.AS.walk(va, uint32(len(data)), func(pa, off, m uint32) { k.phys.WriteBytes(pa, data[off:off+m]) })
	return cycles + uint64(len(data))*sysPerByteCycles, nil
}

// copyOutTracked reads n bytes of process memory at va through the
// guest boundary, honouring lazy rollback.
func (k *Kernel) copyOutTracked(p *Process, va uint32, n uint32) ([]byte, uint64, error) {
	cycles, err := k.guest(p, va, n, false)
	if err != nil {
		return nil, cycles, err
	}
	buf := make([]byte, n)
	p.AS.walk(va, n, func(pa, off, m uint32) { k.phys.ReadBytes(pa, buf[off:off+m]) })
	return buf, cycles + uint64(n)*sysPerByteCycles, nil
}

// readCString reads a NUL-terminated string (bounded) from process memory.
func (k *Kernel) readCString(p *Process, va uint32) (string, error) {
	const maxPath = 256
	var b []byte
	for i := uint32(0); i < maxPath; i++ {
		c, err := p.AS.Read8(va + i)
		if err != nil {
			return "", &ProcFault{PID: p.PID, Err: err}
		}
		if c == 0 {
			return string(b), nil
		}
		b = append(b, c)
	}
	return "", &ProcFault{PID: p.PID, Err: fmt.Errorf("unterminated path at %#x", va)}
}

// Syscall executes system call num for process p on cpu. It returns the
// modelled cycle cost. Errors of type *ProcFault indicate the process
// must be considered failed (the chip invokes recovery); other errors
// are simulator bugs.
func (k *Kernel) Syscall(p *Process, cpu CPU, num int) (uint64, error) {
	cycles := uint64(sysBaseCycles)
	// System calls are synchronisation points: all previously issued
	// trace records must be verified before the call proceeds
	// (Section 3.2.5).
	stall, err := k.hooks.SyncPoint(p)
	cycles += stall
	if err != nil {
		return cycles, &ProcFault{PID: p.PID, Err: err}
	}

	switch num {
	case SysExit:
		p.Halted = true

	case SysRecv:
		bufVA, maxLen := cpu.Reg(1), cpu.Reg(2)
		// Snapshot context/resources and advance the GTS *before* the
		// payload lands in memory, so rollback re-executes this SYS.
		k.hooks.RequestStart(p, cpu)
		req, ok := k.net.Recv(k.hooks.Now())
		if !ok {
			p.Halted = true
			cpu.SetReg(1, ^uint32(0)) // -1: stream drained
			return cycles, nil
		}
		payload := req.Payload
		if uint32(len(payload)) > maxLen {
			payload = payload[:maxLen]
		}
		c, err := k.copyInTracked(p, bufVA, payload)
		cycles += c
		if err != nil {
			return cycles, err
		}
		p.CurrentReq = req.ID
		cpu.SetReg(1, uint32(len(payload)))

	case SysSend:
		bufVA, n := cpu.Reg(1), cpu.Reg(2)
		buf, c, err := k.copyOutTracked(p, bufVA, n)
		cycles += c
		if err != nil {
			return cycles, err
		}
		k.net.Send(p.CurrentReq, buf, k.hooks.Now())
		k.hooks.RequestDone(p, p.CurrentReq)
		p.CurrentReq = 0
		cpu.SetReg(1, n)

	case SysSbrk:
		old, err := p.sbrk(cpu.Reg(1))
		if err != nil {
			return cycles, &ProcFault{PID: p.PID, Err: err}
		}
		cpu.SetReg(1, old)

	case SysOpen:
		path, err := k.readCString(p, cpu.Reg(1))
		if err != nil {
			return cycles, err
		}
		appendMode := cpu.Reg(2) != 0
		f, ok := k.fs.Lookup(path)
		if !ok {
			f = k.fs.Create(path)
		}
		d := p.fds.insert(f, appendMode)
		if appendMode {
			d.Offset = f.Length
		}
		cpu.SetReg(1, uint32(d.FD))

	case SysClose:
		if err := p.fds.close(int(cpu.Reg(1))); err != nil {
			return cycles, &ProcFault{PID: p.PID, Err: err}
		}

	case SysRead:
		d, err := p.fds.get(int(cpu.Reg(1)))
		if err != nil {
			return cycles, &ProcFault{PID: p.PID, Err: err}
		}
		buf := k.fs.read(d.File, d.Offset, cpu.Reg(3))
		c, err := k.copyInTracked(p, cpu.Reg(2), buf)
		cycles += c
		if err != nil {
			return cycles, err
		}
		d.Offset += uint32(len(buf))
		cpu.SetReg(1, uint32(len(buf)))

	case SysWrite:
		d, err := p.fds.get(int(cpu.Reg(1)))
		if err != nil {
			return cycles, &ProcFault{PID: p.PID, Err: err}
		}
		buf, c, err := k.copyOutTracked(p, cpu.Reg(2), cpu.Reg(3))
		cycles += c
		if err != nil {
			return cycles, err
		}
		// File writes are never rolled back (Section 3.3.3); they were
		// verified by the SyncPoint above. A descriptor that another
		// descriptor's write left past the end writes at the end.
		d.Offset = k.fs.write(d.File, d.Offset, buf)
		cpu.SetReg(1, uint32(len(buf)))

	case SysSpawn:
		child := k.nextPID
		k.nextPID++
		p.children = append(p.children, child)
		cpu.SetReg(1, uint32(child))

	case SysLog:
		buf, c, err := k.copyOutTracked(p, cpu.Reg(1), cpu.Reg(2))
		cycles += c
		if err != nil {
			return cycles, err
		}
		k.fs.write(k.auditLog, k.auditLog.Length, append(buf, '\n'))
		cpu.SetReg(1, uint32(len(buf)))

	case SysGetPID:
		cpu.SetReg(1, uint32(p.PID))

	case SysMsgSend:
		// Inter-process messages are NOT recovered (Section 3.3.3:
		// "states associated with inter-process communication, messages,
		// and signals are not recovered ... messages and signals already
		// sent" stay sent).
		k.msgs[cpu.Reg(1)] = append(k.msgs[cpu.Reg(1)], cpu.Reg(2))
		cpu.SetReg(1, 0)

	case SysMsgRecv:
		q := cpu.Reg(1)
		if len(k.msgs[q]) == 0 {
			cpu.SetReg(1, ^uint32(0))
		} else {
			cpu.SetReg(1, k.msgs[q][0])
			k.msgs[q] = k.msgs[q][1:]
		}

	case SysYield:
		// Single-process-per-core scheduling: a no-op timing event.

	case SysDiskRd:
		c, err := k.diskTransfer(p, cpu, false)
		cycles += c
		if err != nil {
			return cycles, err
		}

	case SysDiskWr:
		c, err := k.diskTransfer(p, cpu, true)
		cycles += c
		if err != nil {
			return cycles, err
		}

	case SysSetjmp, SysDynCode:
		// Handled by the chip layer (they inform the resurrector); the
		// kernel only validates the arguments are sane.

	default:
		return cycles, &ProcFault{PID: p.PID, Err: fmt.Errorf("bad syscall %d", num)}
	}
	return cycles, nil
}

// MessageQueue returns a copy of an IPC queue's contents (tests and
// introspection).
func (k *Kernel) MessageQueue(q uint32) []uint32 {
	return append([]uint32(nil), k.msgs[q]...)
}
