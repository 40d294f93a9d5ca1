package oslite

import (
	"sort"

	"indra/internal/asm"
	"indra/internal/snapshot/wire"
)

// EncodeState writes the page table in ascending virtual-page order.
// The one-entry translate cache is derived state and excluded (reset
// on decode).
func (as *AddressSpace) EncodeState(w *wire.Writer) {
	vpns := make([]uint32, 0, len(as.pages))
	for v := range as.pages {
		vpns = append(vpns, v)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	w.Len(len(vpns))
	for _, v := range vpns {
		p := as.pages[v]
		w.U32(v)
		w.U32(p.frame)
		w.U8(uint8(p.perm))
	}
}

// DecodeState rebuilds the page table in place.
func (as *AddressSpace) DecodeState(r *wire.Reader) {
	n := r.Len(4 + 4 + 1)
	as.pages = make(map[uint32]pte, n)
	as.lastOK = false
	prev := int64(-1)
	for i := 0; i < n; i++ {
		v := r.U32()
		frame := r.U32()
		perm := r.U8()
		if r.Err() != nil {
			return
		}
		if int64(v) <= prev {
			r.Failf("oslite: page table vpns out of order at %d", v)
			return
		}
		if frame%PageBytes != 0 || perm > uint8(PermR|PermW|PermX) {
			r.Failf("oslite: invalid pte (frame %#x perm %d)", frame, perm)
			return
		}
		prev = int64(v)
		as.pages[v] = pte{frame: frame, perm: Perm(perm)}
	}
}

// EncodeState writes the extent allocator's next sector, then each
// file's name and extent in sorted name order. The file bytes are the
// disk's sectors, which the device section carries.
func (fs *FS) EncodeState(w *wire.Writer) {
	w.U32(fs.next)
	names := fs.Names()
	w.Len(len(names))
	for _, n := range names {
		f := fs.files[n]
		w.String(n)
		w.U32(f.Start)
		w.U32(f.Count)
		w.U32(f.Length)
	}
}

// DecodeState rebuilds the file table in place, over a disk that
// already holds its restored sectors. Every sector an extent claims is
// written when it is claimed, so the allocated span [FSBaseSector,
// next) is no longer than the disk's sector count and every extent lies
// inside it: what a file can make ReadFile allocate is bounded by the
// disk section's own size. On error the table is left as it was.
func (fs *FS) DecodeState(r *wire.Reader) {
	next := r.U32()
	n := r.Len(4 + 4 + 4 + 4)
	if r.Err() != nil {
		return
	}
	if next < FSBaseSector || next-FSBaseSector > uint32(fs.disk.SectorCount()) {
		r.Failf("oslite: fs allocates up to sector %d, past the disk's %d sectors from %d",
			next, fs.disk.SectorCount(), FSBaseSector)
		return
	}
	files := make(map[string]*File, n)
	prev := ""
	for i := 0; i < n; i++ {
		f := &File{Name: r.String(), Start: r.U32(), Count: r.U32(), Length: r.U32()}
		if r.Err() != nil {
			return
		}
		if i > 0 && f.Name <= prev {
			r.Failf("oslite: file names out of order at %q", f.Name)
			return
		}
		if uint64(f.Length) > uint64(f.Count)*SectorBytes {
			r.Failf("oslite: file %q longer (%d) than its %d sectors", f.Name, f.Length, f.Count)
			return
		}
		if f.Start < FSBaseSector || uint64(f.Start)+uint64(f.Count) > uint64(next) {
			r.Failf("oslite: file %q extent [%d,+%d) outside the allocated sectors [%d,%d)",
				f.Name, f.Start, f.Count, FSBaseSector, next)
			return
		}
		prev = f.Name
		files[f.Name] = f
	}
	fs.files, fs.next = files, next
}

func (t *descriptorTable) encodeState(w *wire.Writer) {
	w.Int(t.next)
	fds := t.fds()
	w.Len(len(fds))
	for _, fd := range fds {
		d := t.open[fd]
		w.Int(fd)
		w.String(d.File.Name)
		w.U32(d.Offset)
		w.Bool(d.Append)
	}
}

// decodeState rebuilds the descriptor table, resolving files by name
// in fs (the aliasing between descriptors and the file store is by
// name, reconstructed here).
func (t *descriptorTable) decodeState(r *wire.Reader, fs *FS) {
	t.next = r.Int()
	n := r.Len(8 + 4 + 4 + 1)
	t.open = make(map[int]*Descriptor, n)
	prev := -1
	for i := 0; i < n; i++ {
		fd := r.Int()
		name := r.String()
		off := r.U32()
		appendMode := r.Bool()
		if r.Err() != nil {
			return
		}
		if fd <= prev || fd >= t.next {
			r.Failf("oslite: invalid descriptor %d (next %d)", fd, t.next)
			return
		}
		f, ok := fs.Lookup(name)
		if !ok {
			r.Failf("oslite: descriptor %d names missing file %q", fd, name)
			return
		}
		prev = fd
		t.open[fd] = &Descriptor{FD: fd, File: f, Offset: off, Append: appendMode}
	}
}

// EncodeState writes one process. The checkpoint scheme is serialized
// by the chip (which knows the configured scheme kind); the kernel
// back-pointer is rewired on decode.
func (p *Process) EncodeState(w *wire.Writer) {
	w.Int(p.PID)
	w.String(p.Name)
	p.AS.EncodeState(w)
	p.Prog.EncodeState(w)
	p.fds.encodeState(w)
	w.Len(len(p.children))
	for _, c := range p.children {
		w.Int(c)
	}
	w.U32(p.heap.base)
	w.U32(p.heap.brk)
	w.Len(len(p.heap.frames))
	for _, f := range p.heap.frames {
		w.U32(f)
	}
	w.U32(p.stack.Lo)
	w.U32(p.stack.Hi)
	w.U64(p.CurrentReq)
	w.Bool(p.Halted)
}

// decodeProcess reads one process owned by kernel k.
func (k *Kernel) decodeProcess(r *wire.Reader) *Process {
	p := &Process{
		AS:   NewAddressSpace(k.phys),
		kern: k,
	}
	p.PID = r.Int()
	p.Name = r.String()
	p.AS.DecodeState(r)
	p.Prog = asm.DecodeProgram(r)
	p.fds.decodeState(r, k.fs)
	n := r.Len(8)
	for i := 0; i < n; i++ {
		p.children = append(p.children, r.Int())
	}
	p.heap.base = r.U32()
	p.heap.brk = r.U32()
	n = r.Len(4)
	for i := 0; i < n; i++ {
		p.heap.frames = append(p.heap.frames, r.U32())
	}
	p.stack.Lo = r.U32()
	p.stack.Hi = r.U32()
	p.CurrentReq = r.U64()
	p.Halted = r.Bool()
	return p
}

// PIDs returns every live process ID in ascending order (snapshot
// iteration order for chip-level per-process state).
func (k *Kernel) PIDs() []int {
	pids := make([]int, 0, len(k.procs))
	for pid := range k.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	return pids
}

// EncodeState writes the kernel: allocator, file system, process
// table (ascending PID) and IPC queues. The audit log is not encoded
// separately — it is the file-system entry "audit.log", re-aliased on
// decode.
func (k *Kernel) EncodeState(w *wire.Writer) {
	k.alloc.EncodeState(w)
	k.fs.EncodeState(w)
	w.Int(k.nextPID)

	pids := make([]int, 0, len(k.procs))
	for pid := range k.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	w.Len(len(pids))
	for _, pid := range pids {
		k.procs[pid].EncodeState(w)
	}

	queues := make([]uint32, 0, len(k.msgs))
	for q := range k.msgs {
		queues = append(queues, q)
	}
	sort.Slice(queues, func(i, j int) bool { return queues[i] < queues[j] })
	w.Len(len(queues))
	for _, q := range queues {
		w.U32(q)
		msgs := k.msgs[q]
		w.Len(len(msgs))
		for _, m := range msgs {
			w.U32(m)
		}
	}
}

// DecodeState restores the kernel in place. Process checkpoint
// schemes are left nil; the chip re-attaches them after decoding.
func (k *Kernel) DecodeState(r *wire.Reader) {
	k.alloc.DecodeState(r)
	k.fs.DecodeState(r)
	k.nextPID = r.Int()

	n := r.Len(16)
	k.procs = make(map[int]*Process, n)
	prev := -1
	for i := 0; i < n; i++ {
		p := k.decodeProcess(r)
		if r.Err() != nil {
			return
		}
		if p.PID <= prev || p.PID >= k.nextPID {
			r.Failf("oslite: process PID %d out of order or beyond next PID %d", p.PID, k.nextPID)
			return
		}
		prev = p.PID
		k.procs[p.PID] = p
	}

	n = r.Len(4 + 4)
	k.msgs = make(map[uint32][]uint32, n)
	prevQ := int64(-1)
	for i := 0; i < n; i++ {
		q := r.U32()
		if r.Err() != nil {
			return
		}
		if int64(q) <= prevQ {
			r.Failf("oslite: message queues out of order at %d", q)
			return
		}
		prevQ = int64(q)
		m := r.Len(4)
		msgs := make([]uint32, 0, m)
		for j := 0; j < m; j++ {
			msgs = append(msgs, r.U32())
		}
		k.msgs[q] = msgs
	}

	log, ok := k.fs.Lookup("audit.log")
	if !ok {
		r.Failf("oslite: snapshot file system missing audit.log")
		return
	}
	k.auditLog = log
}
