package oslite

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"indra/internal/snapshot/wire"
)

// encodeFS writes what a snapshot keeps of a kernel's files: the disk's
// sectors, then the fs table.
func encodeFS(k *Kernel) []byte {
	var w wire.Writer
	k.disk.EncodeState(&w)
	k.fs.EncodeState(&w)
	return w.Bytes()
}

// decodeFS restores an encodeFS blob into a fresh kernel.
func decodeFS(t *testing.T, blob []byte) *Kernel {
	k := testKernel(t, nil, nil)
	r := wire.NewReader(blob)
	k.disk.DecodeState(r)
	k.fs.DecodeState(r)
	if err := r.Close(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return k
}

// driveFS runs one operation stream, decoded from ops, on a kernel's
// disk-backed fs and on a flat reference that keeps each file's bytes
// in one slice, and checks them against each other after every
// operation. Buffers handed to the fs stay the caller's: the disk may
// keep views of them, so each must keep its contents.
func driveFS(t *testing.T, ops []byte) {
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
	names := []string{"a", "b", "c", "audit.log"}
	k := testKernel(t, nil, nil)
	flat := map[string][]byte{"audit.log": {}}
	type given struct{ buf, want []byte }
	var passed []given
	data := func() []byte {
		if next(1)%4 == 0 && len(passed) > 0 {
			return passed[len(passed)-1].buf // shared, as a memoized image is
		}
		b := make([]byte, next(2)%(3*SectorBytes+1))
		fill := uint8(next(1))
		for i := range b {
			b[i] = fill + uint8(i)
		}
		passed = append(passed, given{b, bytes.Clone(b)})
		return b
	}
	file := func(name string) *File {
		if _, ok := flat[name]; !ok {
			flat[name] = []byte{}
			return k.fs.Create(name)
		}
		f, _ := k.fs.Lookup(name)
		return f
	}
	for step := 0; len(ops) > 0; step++ {
		name := names[next(1)%uint32(len(names))]
		switch next(1) % 6 {
		case 0:
			k.fs.Create(name)
			flat[name] = []byte{}
		case 1: // at any offset up to two sectors past the end
			f := file(name)
			ref := flat[name]
			off := next(2) % (uint32(len(ref)) + 2*SectorBytes + 1)
			b := data()
			if end := k.fs.write(f, off, b); end != f.Length {
				t.Fatalf("step %d: write returned %d, file holds %d", step, end, f.Length)
			}
			off = min(off, uint32(len(ref)))
			flat[name] = append(ref[:off:off], b...)
		case 2:
			f := file(name)
			ref := flat[name]
			off := next(2) % (uint32(len(ref)) + SectorBytes + 1)
			n := next(2) % (2*SectorBytes + 1)
			want := ref[min(off, uint32(len(ref))):min(off+n, uint32(len(ref)))]
			if got := k.fs.read(f, off, n); !bytes.Equal(got, want) {
				t.Fatalf("step %d: read(%q, %d, %d) = %d bytes, reference %d", step, name, off, n, len(got), len(want))
			}
		case 3:
			b := data()
			k.WriteFile(name, b)
			flat[name] = bytes.Clone(b)
		case 4:
			got, ok := k.ReadFile(name)
			want, exists := flat[name]
			if ok != exists || !bytes.Equal(got, want) {
				t.Fatalf("step %d: ReadFile(%q) = %d bytes (%v), reference %d (%v)", step, name, len(got), ok, len(want), exists)
			}
		case 5: // carry on from a restored copy
			k = decodeFS(t, encodeFS(k))
		}

		want := make([]string, 0, len(flat))
		for n := range flat {
			want = append(want, n)
		}
		if sort.Strings(want); !slices.Equal(k.fs.Names(), want) {
			t.Fatalf("step %d: files %v, reference %v", step, k.fs.Names(), want)
		}
		for name, want := range flat {
			if got, _ := k.ReadFile(name); !bytes.Equal(got, want) {
				t.Fatalf("step %d: %q holds %d bytes differing from the reference's %d", step, name, len(got), len(want))
			}
			f, _ := k.fs.Lookup(name)
			if tail := f.Length % SectorBytes; tail != 0 {
				sec := k.disk.Peek(f.Start + f.Length/SectorBytes)
				if !bytes.Equal(sec[tail:], make([]byte, SectorBytes-tail)) {
					t.Fatalf("step %d: %q's last sector is not zero past its end", step, name)
				}
			}
		}
		for i, g := range passed {
			if !bytes.Equal(g.buf, g.want) {
				t.Fatalf("step %d: buffer %d handed to the fs changed", step, i)
			}
		}
		if blob := encodeFS(k); !bytes.Equal(encodeFS(decodeFS(t, blob)), blob) {
			t.Fatalf("step %d: fs and disk do not round-trip", step)
		}
	}
}

func TestFSMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 8; run++ {
		ops := make([]byte, 4000)
		rng.Read(ops)
		driveFS(t, ops)
	}
}

func FuzzFS(f *testing.F) {
	f.Add([]byte{})
	// Write 600 bytes to a, truncate it to 10 through offset 0, write
	// from past the end, read a, WriteFile the last buffer to b, read
	// b, and carry on from a restored copy.
	f.Add([]byte{0, 1, 0, 0, 1, 2, 88, 7, 0, 1, 0, 0, 1, 0, 10, 9,
		0, 1, 3, 232, 1, 0, 4, 3, 0, 2, 0, 0, 0, 64, 1, 3, 0, 1, 4, 0, 5})
	rng := rand.New(rand.NewSource(2))
	seed := make([]byte, 512)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 { // every operation round-trips the whole disk
			ops = ops[:256]
		}
		driveFS(t, ops)
	})
}
