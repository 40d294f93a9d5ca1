package oslite

import (
	"fmt"
	"sort"

	"indra/internal/device"
)

// SectorBytes is the disk's sector size.
const SectorBytes = device.SectorBytes

// FSBaseSector is the first sector the fs allocates file extents from;
// sectors below it stay free for the applications' raw disk syscalls
// (which address low sector numbers).
const FSBaseSector = 1 << 20

// File is one file's record: its name and its extent on the disk,
// whose sectors hold the only copy of its bytes.
type File struct {
	Name   string
	Start  uint32 // first sector
	Count  uint32 // sectors reserved
	Length uint32 // valid bytes
}

// FS is the file system shared by all processes on a resurrectee's OS
// instance. Per the paper's recovery model (Section 3.3.3), file
// *contents* are never rolled back — writes already issued are
// considered verified by the monitor synchronisation rule — but
// descriptors opened after a checkpoint are closed during recovery.
//
// Every read and write goes to the platform disk's sectors, so the
// sectors, tampered or not, are what a binary is reloaded from. Extents
// come from a bump allocator that never frees: a file that outgrows
// its extent moves to a fresh one and orphans the old, so every sector
// keeps its bytes and allocation stays deterministic. The disk keeps a
// full sector as a view of the bytes written (Disk.HostWriteSector), so
// no sector is patched in place: a partly written one is rebuilt in a
// fresh buffer.
type FS struct {
	disk  *device.Disk
	files map[string]*File
	next  uint32 // first unallocated sector
}

func newFS(disk *device.Disk) *FS {
	return &FS{disk: disk, files: make(map[string]*File), next: FSBaseSector}
}

// Create makes an empty file, or truncates an existing one, and
// returns it.
func (fs *FS) Create(name string) *File {
	f, ok := fs.files[name]
	if !ok {
		f = &File{Name: name, Start: fs.next}
		fs.files[name] = f
	}
	f.Length = 0
	return f
}

// Lookup finds a file by name.
func (fs *FS) Lookup(name string) (*File, bool) {
	f, ok := fs.files[name]
	return f, ok
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

// read returns a copy of up to n of f's bytes from offset off: none at
// or past the end.
func (fs *FS) read(f *File, off, n uint32) []byte {
	if off >= f.Length {
		return nil
	}
	out := make([]byte, min(n, f.Length-off))
	for i := 0; i < len(out); {
		pos := off + uint32(i)
		i += copy(out[i:], fs.disk.Peek(f.Start + pos/SectorBytes)[pos%SectorBytes:])
	}
	return out
}

// write stores data at offset off of f and ends the file after it; an
// offset past the end writes at the end. It returns the new length. A
// file that outgrows its extent moves to a fresh one, taking the whole
// sectors before off along.
func (fs *FS) write(f *File, off uint32, data []byte) uint32 {
	off = min(off, f.Length)
	end := off + uint32(len(data))
	old := f.Start
	if need := (end + SectorBytes - 1) / SectorBytes; need > f.Count {
		f.Start, f.Count = fs.next, need
		fs.next += need
		for s := uint32(0); s < off/SectorBytes; s++ {
			fs.disk.HostWriteSector(f.Start+s, fs.disk.Peek(old+s))
		}
	}
	f.Length = end
	for s := off / SectorBytes; s*SectorBytes < end; s++ {
		lo, hi := s*SectorBytes, min((s+1)*SectorBytes, end)
		if lo >= off && hi-lo == SectorBytes {
			fs.disk.HostWriteSector(f.Start+s, data[lo-off:hi-off])
			continue
		}
		// A partly written sector keeps its bytes before off and is
		// zero past the end. Peek returns a copy, so no stored sector
		// changes.
		buf := fs.disk.Peek(old + s)
		clear(buf[max(lo, off)-lo:])
		copy(buf[max(lo, off)-lo:], data[max(lo, off)-off:hi-off])
		fs.disk.HostWriteSector(f.Start+s, buf)
	}
	return end
}

// Descriptor is an open-file handle with an independent offset.
type Descriptor struct {
	FD     int
	File   *File
	Offset uint32
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
