package oslite

import (
	"fmt"
	"sort"

	"indra/internal/device"
)

// File is an in-memory file.
type File struct {
	Name string
	Data []byte
}

// BlockStore is the storage a backed FS persists file contents on.
// device.Disk implements it: HostWriteSector/Peek are the host-side
// (zero-cycle) sector access the platform uses below the DMA engine.
//
// HostWriteSector may keep a full sector as a view of the bytes it is
// given, not a copy. So no file writer mutates bytes in place: a write
// replaces File.Data with a fresh slice, and an append lands past the
// bytes already flushed.
type BlockStore interface {
	HostWriteSector(sector uint32, data []byte)
	Peek(sector uint32) []byte
}

// SectorBytes is the block store's sector size.
const SectorBytes = device.SectorBytes

// Extent records where one file lives on the block store.
type Extent struct {
	Start  uint32 // first sector
	Count  uint32 // sectors reserved
	Length uint32 // valid bytes
}

// FS is the in-memory file system shared by all processes on a
// resurrectee's OS instance. Per the paper's recovery model (Section
// 3.3.3), file *contents* are never rolled back — writes already issued
// are considered verified by the monitor synchronisation rule — but
// descriptors opened after a checkpoint are closed during recovery.
//
// A backed FS (Back) additionally persists every file on a block
// store: mutations write through whole-file, opens re-read the on-disk
// extent, so the sectors — not the in-memory cache — are the truth a
// tampered binary is reloaded from. Extents come from a bump allocator
// that never frees: a grown file moves to a fresh extent and orphans
// the old one, which keeps allocation deterministic and trivially
// snapshot-stable.
type FS struct {
	files      map[string]*File
	store      BlockStore
	extents    map[string]Extent
	nextSector uint32
}

// NewFS creates an empty file system.
func NewFS() *FS { return &FS{files: make(map[string]*File)} }

// Back arms block-store write-through with extents allocated from base
// upward, and flushes every existing file. Sector numbers below base
// stay free for the application's raw disk syscalls.
func (fs *FS) Back(store BlockStore, base uint32) {
	fs.store = store
	fs.extents = make(map[string]Extent)
	fs.nextSector = base
	for _, name := range fs.Names() {
		fs.Flush(name)
	}
}

// Backed reports whether a block store is attached.
func (fs *FS) Backed() bool { return fs.store != nil }

// Extent returns a file's on-store location (zero, false when the FS
// is unbacked or the file unknown).
func (fs *FS) Extent(name string) (Extent, bool) {
	e, ok := fs.extents[name]
	return e, ok
}

// Flush writes a file's contents through to the block store,
// allocating a larger extent when the file outgrew its current one.
// No-op on an unbacked FS.
func (fs *FS) Flush(name string) {
	if fs.store == nil {
		return
	}
	f, ok := fs.files[name]
	if !ok {
		return
	}
	need := (uint32(len(f.Data)) + SectorBytes - 1) / SectorBytes
	e, ok := fs.extents[name]
	if !ok || need > e.Count {
		e = Extent{Start: fs.nextSector, Count: need}
		fs.nextSector += need
	}
	e.Length = uint32(len(f.Data))
	fs.extents[name] = e
	for i := uint32(0); i < need; i++ {
		lo := i * SectorBytes
		hi := lo + SectorBytes
		if hi > e.Length {
			hi = e.Length
		}
		fs.store.HostWriteSector(e.Start+i, f.Data[lo:hi])
	}
}

// Refresh re-reads a file's contents from its on-store extent,
// making sector-level changes (including tampering below the fs layer)
// visible to the next consumer. No-op on an unbacked FS or a file
// without an extent.
func (fs *FS) Refresh(name string) {
	if fs.store == nil {
		return
	}
	f, ok := fs.files[name]
	if !ok {
		return
	}
	e, ok := fs.extents[name]
	if !ok {
		return
	}
	data := make([]byte, e.Length)
	for i := uint32(0); i*SectorBytes < e.Length; i++ {
		copy(data[i*SectorBytes:], fs.store.Peek(e.Start+i))
	}
	f.Data = data
}

// Create makes (or truncates) a file and returns it.
func (fs *FS) Create(name string) *File {
	f := &File{Name: name}
	fs.files[name] = f
	fs.Flush(name)
	return f
}

// Lookup finds a file by name.
func (fs *FS) Lookup(name string) (*File, bool) {
	f, ok := fs.files[name]
	return f, ok
}

// Put installs a file with contents (test/workload setup).
func (fs *FS) Put(name string, data []byte) *File {
	f := &File{Name: name, Data: data}
	fs.files[name] = f
	fs.Flush(name)
	return f
}

// Names returns all file names, sorted.
func (fs *FS) Names() []string {
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Descriptor is an open-file handle with an independent offset.
type Descriptor struct {
	FD     int
	File   *File
	Offset int
	Append bool
}

// descriptorTable manages a process's open files.
type descriptorTable struct {
	next int
	open map[int]*Descriptor
}

func newDescriptorTable() descriptorTable {
	return descriptorTable{next: 3, open: make(map[int]*Descriptor)} // 0-2 reserved
}

func (t *descriptorTable) insert(f *File, appendMode bool) *Descriptor {
	d := &Descriptor{FD: t.next, File: f, Append: appendMode}
	t.open[d.FD] = d
	t.next++
	return d
}

func (t *descriptorTable) get(fd int) (*Descriptor, error) {
	d, ok := t.open[fd]
	if !ok {
		return nil, fmt.Errorf("oslite: bad file descriptor %d", fd)
	}
	return d, nil
}

func (t *descriptorTable) close(fd int) error {
	if _, ok := t.open[fd]; !ok {
		return fmt.Errorf("oslite: close of bad descriptor %d", fd)
	}
	delete(t.open, fd)
	return nil
}

// fds returns the open descriptor numbers (sorted, for snapshots).
func (t *descriptorTable) fds() []int {
	out := make([]int, 0, len(t.open))
	for fd := range t.open {
		out = append(out, fd)
	}
	sort.Ints(out)
	return out
}
