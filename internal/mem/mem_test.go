package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"indra/internal/snapshot/wire"
)

func TestReadWrite(t *testing.T) {
	p := NewPhysical(2 * PageBytes)
	p.Write32(100, 0xDEADBEEF)
	if got := p.Read32(100); got != 0xDEADBEEF {
		t.Fatalf("read32 %#x", got)
	}
	// Little-endian layout.
	if p.Read8(100) != 0xEF || p.Read8(103) != 0xDE {
		t.Fatal("endianness")
	}
	p.Write8(200, 0x5A)
	if p.Read8(200) != 0x5A {
		t.Fatal("byte rw")
	}
	buf := []byte{1, 2, 3, 4, 5}
	p.WriteBytes(300, buf)
	out := make([]byte, 5)
	p.ReadBytes(300, out)
	for i := range buf {
		if out[i] != buf[i] {
			t.Fatalf("bulk rw at %d: %v", i, out)
		}
	}
}

func TestZeroPage(t *testing.T) {
	p := NewPhysical(2 * PageBytes)
	p.Write32(PageBytes+8, 7)
	p.ZeroPage(PageBytes + 100)
	if p.Read32(PageBytes+8) != 0 {
		t.Fatal("page not zeroed")
	}
}

func TestNewPhysicalValidation(t *testing.T) {
	for _, size := range []uint32{0, 100, PageBytes + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d should panic", size)
				}
			}()
			NewPhysical(size)
		}()
	}
}

func TestFrameAllocator(t *testing.T) {
	a := NewFrameAllocator(PageBytes, 4*PageBytes) // 3 frames
	lo, hi := a.Region()
	if lo != PageBytes || hi != 4*PageBytes {
		t.Fatal("region readback")
	}
	var frames []uint32
	for i := 0; i < 3; i++ {
		f, err := a.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if f%PageBytes != 0 || f < lo || f >= hi {
			t.Fatalf("frame %#x out of region", f)
		}
		frames = append(frames, f)
	}
	if a.InUse() != 3 {
		t.Fatalf("in use %d", a.InUse())
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("exhausted allocator succeeded")
	}
	a.Free(frames[1])
	if a.InUse() != 2 {
		t.Fatalf("in use after free %d", a.InUse())
	}
	f, err := a.Alloc()
	if err != nil || f != frames[1] {
		t.Fatalf("recycled frame %#x, want %#x (%v)", f, frames[1], err)
	}
}

func TestFrameAllocatorPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad region should panic")
			}
		}()
		NewFrameAllocator(100, 200)
	}()
	a := NewFrameAllocator(0, PageBytes)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad free should panic")
			}
		}()
		a.Free(2 * PageBytes)
	}()
}

// flatPhysical is the flat memory that sparse pages replaced: one
// zeroed buffer of the whole size and a version per page. It is the
// reference the sparse Physical must match operation for operation.
type flatPhysical struct {
	data []byte
	vers []uint32
}

func newFlat(size uint32) *flatPhysical {
	return &flatPhysical{data: make([]byte, size), vers: make([]uint32, size/PageBytes)}
}

func (p *flatPhysical) Read32(addr uint32) uint32 {
	return binary.LittleEndian.Uint32(p.data[addr : addr+4])
}

func (p *flatPhysical) Write32(addr uint32, v uint32) {
	binary.LittleEndian.PutUint32(p.data[addr:addr+4], v)
	p.vers[addr>>pageShift]++
}

func (p *flatPhysical) Read8(addr uint32) uint8 { return p.data[addr] }

func (p *flatPhysical) Write8(addr uint32, v uint8) {
	p.data[addr] = v
	p.vers[addr>>pageShift]++
}

func (p *flatPhysical) ReadBytes(addr uint32, dst []byte) {
	copy(dst, p.data[addr:addr+uint32(len(dst))])
}

func (p *flatPhysical) WriteBytes(addr uint32, src []byte) {
	if len(src) == 0 {
		return
	}
	copy(p.data[addr:addr+uint32(len(src))], src)
	for pg, end := addr>>pageShift, (addr+uint32(len(src))-1)>>pageShift; pg <= end; pg++ {
		p.vers[pg]++
	}
}

func (p *flatPhysical) ZeroPage(addr uint32) {
	base := addr &^ (PageBytes - 1)
	clear(p.data[base : base+PageBytes])
	p.vers[addr>>pageShift]++
}

func (p *flatPhysical) PageVersion(addr uint32) uint32 { return p.vers[addr>>pageShift] }

func (p *flatPhysical) VersionDigest() uint64 {
	h := uint64(fnvOffset)
	for _, v := range p.vers {
		h = (h ^ uint64(v)) * fnvPrime
	}
	return h
}

func (p *flatPhysical) Digest() uint64 {
	h := uint64(fnvOffset)
	for i, v := range p.vers {
		if v == 0 {
			continue
		}
		h = (h ^ uint64(i)) * fnvPrime
		h = (h ^ uint64(v)) * fnvPrime
		base := uint32(i) << pageShift
		for _, b := range p.data[base : base+PageBytes] {
			h = (h ^ uint64(b)) * fnvPrime
		}
	}
	return h
}

func (p *flatPhysical) EncodeState(w *wire.Writer) {
	w.U32(uint32(len(p.data)))
	n := 0
	for _, v := range p.vers {
		if v != 0 {
			n++
		}
	}
	w.Len(n)
	for i, v := range p.vers {
		if v == 0 {
			continue
		}
		w.U32(uint32(i))
		w.U32(v)
		base := uint32(i) << pageShift
		w.Raw(p.data[base : base+PageBytes])
	}
}

func (p *flatPhysical) DecodeState(r *wire.Reader) {
	size := r.U32()
	if r.Err() != nil {
		return
	}
	if size != uint32(len(p.data)) {
		r.Failf("mem: snapshot memory size %d, have %d", size, len(p.data))
		return
	}
	for i, v := range p.vers {
		if v != 0 {
			base := uint32(i) << pageShift
			clear(p.data[base : base+PageBytes])
			p.vers[i] = 0
		}
	}
	n := r.Len(4 + 4 + PageBytes)
	prev := -1
	for j := 0; j < n; j++ {
		pg := r.U32()
		v := r.U32()
		b := r.Raw(PageBytes)
		if r.Err() != nil {
			return
		}
		if int(pg) <= prev || pg >= uint32(len(p.vers)) {
			r.Failf("mem: page index %d out of order or range", pg)
			return
		}
		if v == 0 {
			r.Failf("mem: page %d recorded with version 0", pg)
			return
		}
		prev = int(pg)
		base := pg << pageShift
		copy(p.data[base:base+PageBytes], b)
		p.vers[pg] = v
	}
}

// twinPages is the twins' size: small, so operations collide on pages.
const twinPages = 4

// twin is a sparse memory and its flat reference, driven alike.
type twin struct {
	sparse *Physical
	flat   *flatPhysical
}

func newTwin() twin {
	return twin{NewPhysical(twinPages * PageBytes), newFlat(twinPages * PageBytes)}
}

func encode(m interface{ EncodeState(*wire.Writer) }) []byte {
	var w wire.Writer
	m.EncodeState(&w)
	return w.Bytes()
}

// check fails unless both memories read, version and encode alike.
func (tw twin) check(t testing.TB, step int) {
	t.Helper()
	size := tw.sparse.Size()
	a, b := make([]byte, size), make([]byte, size)
	tw.sparse.ReadBytes(0, a)
	tw.flat.ReadBytes(0, b)
	if !bytes.Equal(a, b) {
		t.Fatalf("step %d: memory images differ", step)
	}
	for pg := uint32(0); pg < twinPages; pg++ {
		if s, f := tw.sparse.PageVersion(pg<<pageShift), tw.flat.PageVersion(pg<<pageShift); s != f {
			t.Fatalf("step %d: page %d version %d, reference %d", step, pg, s, f)
		}
	}
	if tw.sparse.VersionDigest() != tw.flat.VersionDigest() {
		t.Fatalf("step %d: VersionDigest differs", step)
	}
	if tw.sparse.Digest() != tw.flat.Digest() {
		t.Fatalf("step %d: Digest differs", step)
	}
	if !bytes.Equal(encode(tw.sparse), encode(tw.flat)) {
		t.Fatalf("step %d: EncodeState bytes differ", step)
	}
}

// drivePhysical runs one operation stream, decoded from ops, on two
// twins and checks them after every operation. Restores encode one
// twin and decode it into the other, which holds pages of its own.
func drivePhysical(t testing.TB, ops []byte) {
	next := func(n int) uint32 {
		var v uint32
		for i := 0; i < n; i++ {
			v <<= 8
			if len(ops) > 0 {
				v |= uint32(ops[0])
				ops = ops[1:]
			}
		}
		return v
	}
	const size = twinPages * PageBytes
	tws := [2]twin{newTwin(), newTwin()}
	cur := 0
	for step := 0; len(ops) > 0; step++ {
		tw := &tws[cur]
		op := next(1) % 9
		addr := next(2) % size
		switch op {
		case 0:
			v := next(4)
			tw.sparse.Write32(addr&^3, v)
			tw.flat.Write32(addr&^3, v)
		case 1:
			v := uint8(next(1))
			tw.sparse.Write8(addr, v)
			tw.flat.Write8(addr, v)
		case 2: // up to two pages, across page ends, possibly empty
			n := next(2) % (2*PageBytes + 1)
			n = min(n, size-addr)
			src := make([]byte, n)
			fill := uint8(next(1))
			for i := range src {
				src[i] = fill + uint8(i)
			}
			tw.sparse.WriteBytes(addr, src)
			tw.flat.WriteBytes(addr, src)
		case 3:
			tw.sparse.ZeroPage(addr)
			tw.flat.ZeroPage(addr)
		case 4: // any address, so an unaligned word may straddle pages
			addr = min(addr, size-4)
			if s, f := tw.sparse.Read32(addr), tw.flat.Read32(addr); s != f {
				t.Fatalf("step %d: Read32(%#x) = %#x, reference %#x", step, addr, s, f)
			}
		case 5:
			if s, f := tw.sparse.Read8(addr), tw.flat.Read8(addr); s != f {
				t.Fatalf("step %d: Read8(%#x) = %#x, reference %#x", step, addr, s, f)
			}
		case 6:
			n := min(next(2)%(2*PageBytes+1), size-addr)
			s, f := make([]byte, n), make([]byte, n)
			tw.sparse.ReadBytes(addr, s)
			tw.flat.ReadBytes(addr, f)
			if !bytes.Equal(s, f) {
				t.Fatalf("step %d: ReadBytes(%#x, %d) differs", step, addr, n)
			}
		case 7:
			other := &tws[cur^1]
			rs, rf := wire.NewReader(encode(tw.sparse)), wire.NewReader(encode(tw.flat))
			other.sparse.DecodeState(rs)
			other.flat.DecodeState(rf)
			if rs.Err() != nil || rf.Err() != nil {
				t.Fatalf("step %d: decode: %v, reference %v", step, rs.Err(), rf.Err())
			}
			other.check(t, step)
		case 8:
			cur ^= 1
			tw = &tws[cur]
		}
		tw.check(t, step)
	}
}

func TestSparseMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 8; run++ {
		ops := make([]byte, 4000)
		rng.Read(ops)
		drivePhysical(t, ops)
	}
}

func FuzzPhysical(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0x0f, 0xf0, 0x20, 0x00, 7, 7, 0, 0, 8, 3, 0x10, 0x00, 4, 0x0f, 0xfe})
	rng := rand.New(rand.NewSource(2))
	seed := make([]byte, 512)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 { // every operation checks the whole image
			ops = ops[:1024]
		}
		drivePhysical(t, ops)
	})
}

// An out-of-range access is a simulator bug and panics, as the flat
// buffer's bounds check made it.
func TestPhysicalOutOfRangePanics(t *testing.T) {
	const size = 2 * PageBytes
	p := NewPhysical(size)
	for name, op := range map[string]func(){
		"Read32":     func() { p.Read32(size) },
		"Read32 end": func() { p.Read32(size - 2) },
		"Write32":    func() { p.Write32(size, 1) },
		"Read8":      func() { p.Read8(size) },
		"Write8":     func() { p.Write8(size, 1) },
		"ReadBytes":  func() { p.ReadBytes(size-2, make([]byte, 4)) },
		"WriteBytes": func() { p.WriteBytes(size-2, []byte{9, 9, 9, 9}) },
		"ZeroPage":   func() { p.ZeroPage(size) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			op()
		}()
	}
}

// A default-sized memory costs its page table, not its size.
func TestSparseFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := NewPhysical(64 << 20)
	p.Write32(32<<20, 1)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Errorf("a 64 MB memory with one store grew the heap by %d bytes", grew)
	}
	runtime.KeepAlive(p)
}
