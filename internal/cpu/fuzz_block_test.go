package cpu

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"indra/internal/asm"
	"indra/internal/cache"
	"indra/internal/isa"
	"indra/internal/mem"
	"indra/internal/oslite"
	"indra/internal/tlb"
	"indra/internal/watchdog"
)

// FuzzBlockBuilder is the block engine's equivalence fuzzer: arbitrary
// instruction byte streams (valid, invalid, and fusion-rich) run once
// through per-instruction Step dispatch and once through the block
// walk with superinstruction fusion, and every architectural
// outcome — registers, PC, halt flag, counters, fault identity, trace
// and syscall streams, memory image — must be identical. The chunk
// seed varies the block engine's visit budgets so mid-pair budget
// stops and half-executed fusions are exercised too, and a fuzzed
// load hook writes the text the way a lazy checkpoint line restore
// does, so loads that rewrite code are exercised as well as stores.

// fuzzTextBase is where the fuzzed code lands (identity-mapped, two
// pages so blocks and fused pairs can straddle a page boundary).
const fuzzTextBase = 0x10000

// loadPatch drives the fuzz env's PreLoad hook: on the k-th load
// (k > 0) it stores word into the text off instructions from the
// loading one, as a lazy line restore rewrites memory in the middle of
// a load. Both engines issue the same loads, so the write lands at the
// same point of both runs.
type loadPatch struct {
	k    uint8
	off  int8
	word uint32
}

// fuzzCore builds a fresh core with the code bytes mapped at
// fuzzTextBase, a data page and a small stack.
func fuzzCore(code []byte, patch loadPatch) (*Core, *stubEnv, *mem.Physical) {
	phys := mem.NewPhysical(1 << 20)
	as := oslite.NewAddressSpace(phys)
	// Text is writable so fuzzed streams can self-modify (the block
	// cache must invalidate identically to the scalar predecoder).
	for off := uint32(0); off < 2*oslite.PageBytes; off += oslite.PageBytes {
		as.Map(fuzzTextBase+off, fuzzTextBase+off, oslite.PermR|oslite.PermW|oslite.PermX)
	}
	const dataBase = 0x20000
	as.Map(dataBase, dataBase, oslite.PermR|oslite.PermW)
	const stackTop = 0x40000
	for off := uint32(0); off < 4*oslite.PageBytes; off += oslite.PageBytes {
		as.Map(stackTop-4*oslite.PageBytes+off, stackTop-4*oslite.PageBytes+off, oslite.PermR|oslite.PermW)
	}
	if err := as.WriteBytes(fuzzTextBase, code); err != nil {
		panic(err)
	}
	env := &stubEnv{}
	core := New(Config{
		ID:           1,
		Phys:         phys,
		Watchdog:     watchdog.New(watchdog.Config{Privileged: watchdog.CoreMask(1)}),
		Hierarchy:    cache.NewHierarchy(cache.DefaultHierarchyConfig(), nil),
		ITLB:         tlb.New(tlb.DefaultITLB()),
		DTLB:         tlb.New(tlb.DefaultDTLB()),
		CAMSize:      32,
		BPredEntries: 512,
		Env:          env,
	})
	core.SetProcess(7, as)
	core.SetPC(fuzzTextBase)
	core.SetReg(isa.RSP, stackTop-16)
	core.SetReg(isa.RGP, dataBase)
	loads := 0
	env.preLoad = func(uint32) uint64 {
		loads++
		if loads == int(patch.k) {
			at := (core.PC() + uint32(int32(patch.off)*isa.InstBytes)) &^ 3
			if at-fuzzTextBase < 2*oslite.PageBytes {
				phys.Write32(at, patch.word)
			}
		}
		return 0
	}
	return core, env, phys
}

// fuzzOutcome is everything the two engines must agree on.
type fuzzOutcome struct {
	attempts uint64
	err      string
	pc       uint32
	regs     [isa.NumRegs]uint32
	halted   bool
	stats    Stats
	mem      uint64
	syscalls []int
	traces   int
}

func outcome(c *Core, env *stubEnv, phys *mem.Physical, attempts uint64, err error) fuzzOutcome {
	o := fuzzOutcome{
		attempts: attempts,
		pc:       c.PC(),
		halted:   c.Halted(),
		stats:    c.Stats(),
		mem:      phys.Digest(),
		syscalls: env.syscalls,
		traces:   len(env.traces),
	}
	if err != nil {
		o.err = err.Error()
	}
	for i := range o.regs {
		o.regs[i] = c.Reg(i)
	}
	return o
}

// fuzzCap bounds one fuzz execution (code can loop forever).
const fuzzCap = 2048

// runScalar executes per-instruction dispatch up to the attempt cap.
func runScalar(code []byte, patch loadPatch) fuzzOutcome {
	c, env, phys := fuzzCore(code, patch)
	var n uint64
	var err error
	for n < fuzzCap && !c.Halted() && err == nil {
		n++
		err = c.Step()
	}
	return outcome(c, env, phys, n, err)
}

// runBlocks executes the same attempt count through the block engine,
// in visit chunks whose sizes cycle through the chunk seed.
func runBlocks(code []byte, chunk byte, patch loadPatch) fuzzOutcome {
	c, env, phys := fuzzCore(code, patch)
	sizes := [3]uint64{1 + uint64(chunk&7), 1 + uint64(chunk>>3&15), 64}
	var n uint64
	var err error
	for i := 0; n < fuzzCap && !c.Halted() && err == nil; i++ {
		budget := sizes[i%len(sizes)]
		if rest := fuzzCap - n; budget > rest {
			budget = rest
		}
		var k uint64
		k, err = c.RunBlocks(budget)
		n += k
	}
	return outcome(c, env, phys, n, err)
}

// mustAssemble turns source into raw text bytes for the seed corpus.
func mustAssemble(f *testing.F, src string) []byte {
	prog, err := asm.Assemble(src)
	if err != nil {
		f.Fatal(err)
	}
	return prog.Text
}

func FuzzBlockBuilder(f *testing.F) {
	// Fusion-rich seeds: every superinstruction pattern, plus branches
	// back and forth, a self-modifying store, a halt, and a syscall.
	f.Add(mustAssemble(f, `
		li r1, 0x30028
		slt r2, r1, r3
		beq r2, r0, skip
		addi r4, r0, 1
	skip:
		sltu r2, r3, r1
		bne r2, r0, done
		addi r4, r4, 2
	done:
		halt
	`), byte(3), uint8(0), int8(0), uint32(0))
	f.Add(mustAssemble(f, `
		addi r5, r0, 100
		mv r10, gp
	loop:
		lw r6, 0(r10)
		add r7, r6, r5
		sw r7, 4(r10)
		addi r5, r5, -1
		slt r8, r0, r5
		bne r8, r0, loop
		sys 0
		halt
	`), byte(9), uint8(0), int8(0), uint32(0))
	f.Add(mustAssemble(f, `
		jal lr, sub
		halt
	sub:
		li r9, 0x100008
		jalr r0, lr, 0
	`), byte(17), uint8(0), int8(0), uint32(0))
	// A self-modifying store into the text page: the walk must drop the
	// page's decodings exactly like the scalar predecoder.
	smc := mustAssemble(f, `
		li r1, 0x10020
		sw r0, 0(r1)
		addi r3, r0, 7
		addi r3, r0, 8
		halt
	`)
	f.Add(smc, byte(1), uint8(0), int8(0), uint32(0))
	// Raw edge cases: empty, a single invalid word, unaligned-target
	// jump material.
	f.Add([]byte{}, byte(0), uint8(0), int8(0), uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, byte(5), uint8(0), int8(0), uint32(0))
	word := make([]byte, 4)
	binary.LittleEndian.PutUint32(word, 0x00000000)
	f.Add(word, byte(2), uint8(0), int8(0), uint32(0))
	// A load that rewrites the instruction right after it, as a lazy
	// line restore does: the walk must not run the decoding it held.
	f.Add(mustAssemble(f, `
		la r2, patch
		lw r4, 0(r2)
	patch:
		addi r1, r1, 1
		halt
	donor:
		addi r1, r1, 100
	`), byte(64), uint8(1), int8(1), isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 100}))
	// The same hazard between the halves of a fused load+op pair.
	f.Add(mustAssemble(f, `
		la r2, data
		lw r4, 0(r2)
		addi r4, r4, 1
		halt
	data:
		halt
	`), byte(64), uint8(1), int8(1), isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 4, Rs1: 4, Imm: 9}))

	f.Fuzz(func(t *testing.T, code []byte, chunk byte, loadK uint8, off int8, patchWord uint32) {
		if len(code) > 2*oslite.PageBytes {
			code = code[:2*oslite.PageBytes]
		}
		patch := loadPatch{k: loadK, off: off, word: patchWord}
		want := runScalar(code, patch)
		got := runBlocks(code, chunk, patch)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("block execution diverges from scalar\nscalar: %+v\nblock:  %+v", want, got)
		}
	})
}

// TestBlockBuilderSeedEquivalence pins the seed corpus outside of
// fuzzing mode (go test runs seeds through the fuzz target already;
// this adds an explicit long self-modifying loop the corpus cannot
// express compactly).
func TestBlockBuilderSeedEquivalence(t *testing.T) {
	prog, err := asm.Assemble(`
		addi r5, r0, 40
	loop:
		li r1, 0x10034
		lw r6, 0(r1)
		sw r6, 0(r1)
		addi r5, r5, -1
		slt r8, r0, r5
		bne r8, r0, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	for chunk := byte(0); chunk < 32; chunk += 5 {
		want := runScalar(prog.Text, loadPatch{})
		got := runBlocks(prog.Text, chunk, loadPatch{})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("chunk %d: block diverges\nscalar: %+v\nblock:  %+v", chunk, want, got)
		}
		if want.attempts == fuzzCap {
			t.Fatal("seed program did not finish within the cap")
		}
		if errors.Is(err, nil) && !want.halted {
			t.Fatal("seed program did not halt")
		}
	}
}
