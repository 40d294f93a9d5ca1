package cpu

import (
	"fmt"
	"strings"

	"indra/internal/isa"
	"indra/internal/oslite"
	"indra/internal/watchdog"
)

// Block execution, run straight off the predecode cache.
//
// The block executor walks a visit's instructions in place on the
// predecoder's decoded pages instead of paying the fetch-translate-
// lookup sequence per instruction. Each word's page tag records, next
// to its decoding, whether a superinstruction starts there; the walk
// dispatches single instructions and fused pairs slot by slot and
// follows control transfers within the page without any lookup. It is
// a simulator speed structure with one invariant: every observable
// effect — cycle charges, cache/TLB/predictor state, trace records,
// counters, faults — lands on exactly the instruction it would under
// per-step execution. The differential harness (internal/isa/difftest)
// and FuzzBlockBuilder pin that invariant.
//
// What the executor elides, and why each elision is safe within a
// visit (one RunBlocks call):
//
//   - as.Translate per instruction → once per page entry. Mappings only
//     change inside syscalls (sbrk, recovery restore), and a syscall
//     always ends the visit. Translation is pure (no cycles, no stats).
//   - wd.Check per fetch → one ranged check per page entry. Watchdog
//     partitions are reprogrammed only at boot; a page the ranged check
//     cannot fully clear falls back to exact per-instruction stepping.
//   - predecode map lookup and version check per instruction → once
//     per page entry, plus a version re-check after each data access.
//
// What it must never elide: the per-instruction ITLB access and IL1
// fetch (their hit counters and cycle charges are architecturally
// visible), the code-origin tap, branch-predictor updates, and the
// checkpoint hooks on the data path.
//
// Coherence follows the predecoder's rule: a page's decodings and tags
// hold for one write version of the page and are flushed when it moves
// (self-modifying stores, DMA-style device writes, loader reuse,
// rollback restores). Within a visit only the core's own data accesses
// can write memory — a store, or a load whose checkpoint hook lazily
// restores a rolled-back line — so the walk re-checks the code page's
// version after every load and store, and an attack payload that
// overwrites instructions ahead of the PC never executes stale decodes.

// pendingAfterEmit polls the environment after an instruction whose
// fetch or execution pushed a trace record: verification may have
// flagged a violation, and per-step execution would stop here.
func (c *Core) pendingAfterEmit() bool {
	c.emitted = false
	return c.env.PendingViolation()
}

// FlushDerived drops the predecode cache. Restoring serialized state
// calls it: decoded pages are deliberately excluded from snapshots —
// they are provably rebuildable from physical memory — but a chip that
// executed a different history holds pages whose versions could
// collide with the restored ones.
func (c *Core) FlushDerived() {
	c.dec = newPredecoder()
}

// RunBlocks executes up to budget instruction attempts through the
// block executor and returns how many were consumed (retired
// instructions plus a final faulting attempt, mirroring the chip run
// loop's accounting). It may stop early at any instruction boundary —
// the caller re-evaluates and calls again — but it never runs past
// budget, a fault, a HALT, a syscall, or an emitted trace record whose
// verification flagged a violation.
func (c *Core) RunBlocks(budget uint64) (uint64, error) {
	var n uint64
	c.emitted = false
	var (
		pageVA uint32 = 1 // not page-aligned: forces the first translate
		pagePA uint32
		vpn    uint32
		pg     *decPage
	)
	for n < budget && !c.halted {
		pc := c.pc
		if pc&3 != 0 {
			// Unaligned fetch (attack-crafted jump target): one exact
			// scalar step, then yield the visit.
			return n + 1, c.Step()
		}
		if pc&^uint32(pageMask) != pageVA {
			// New code page: translate once (pure — the per-instruction
			// TLB timing still runs below) and clear the whole page
			// through the watchdog with one ranged check.
			pa, _, err := c.as.Translate(pc)
			base := pa &^ uint32(pageMask)
			if err != nil ||
				!c.wd.CheckRange(c.ID, base, base+oslite.PageBytes, watchdog.Execute) {
				// Translation fault, or a page the ranged check cannot
				// fully clear: take one exact scalar step (it redoes
				// translation and the precise per-address check, and
				// faults at exactly the right instruction), then yield.
				return n + 1, c.Step()
			}
			pageVA, pagePA, vpn = pc&^uint32(pageMask), base, pc/oslite.PageBytes
			pg = c.dec.page(c.phys, base)
		}
		i := (pc & uint32(pageMask)) / isa.InstBytes
		pa := pagePA + (pc & uint32(pageMask))
		k := pg.kind(c.phys, pagePA, i)
		a := &pg.insts[i]
		c.stats.Cycles += c.itlb.Access(vpn)
		c.fetchAt(pc, pa)
		switch k {
		case isa.FuseNone:
			n++
			if err := c.execOne(a); err != nil {
				return n, err
			}
			if c.emitted && c.pendingAfterEmit() {
				return n, nil
			}
			if a.Op == isa.OpSys {
				// The kernel may have switched processes, rewound the
				// PC or armed a request budget: yield.
				return n, nil
			}
			// Loads and stores are the contiguous opcodes OpLw..OpSb,
			// so one unsigned compare tests IsLoad() || IsStore()
			// (internal/isa's TestLoadStoreRange pins the order).
			if a.Op-isa.OpLw <= isa.OpSb-isa.OpLw && pg.version != c.phys.PageVersion(pagePA) {
				// A store into this very code page, or a load whose
				// checkpoint hook restored one of its lines: everything
				// decoded on it is stale. Take the page again.
				pg = c.dec.page(c.phys, pagePA)
			}

		case isa.FuseLuiAddi:
			if c.emitted && c.pendingAfterEmit() {
				// The first fetch's origin record flagged a violation:
				// per-step execution runs exactly the first half and
				// stops before fetching the second.
				n++
				return n, c.execOne(a)
			}
			if n+2 > budget {
				// Budget allows one more instruction: the pair's second
				// half is dispatched on its own next call.
				n++
				return n, c.execOne(a)
			}
			c.stats.Cycles += c.itlb.Access(vpn)
			c.fetchAt(pc+4, pa+4)
			// Both halves are pure ALU: committing them together after
			// the second fetch is step-for-step identical.
			c.stats.Instret += 2
			c.stats.Cycles += 2
			c.SetReg(int(a.Rd), (uint32(a.Imm)<<12)+uint32(pg.insts[i+1].Imm))
			c.pc = pc + 8
			n += 2
			if c.emitted && c.pendingAfterEmit() {
				return n, nil
			}

		case isa.FuseCmpBranch:
			if c.emitted && c.pendingAfterEmit() {
				n++
				return n, c.execOne(a)
			}
			if n+2 > budget {
				n++
				return n, c.execOne(a)
			}
			c.stats.Cycles += c.itlb.Access(vpn)
			c.fetchAt(pc+4, pa+4)
			b := &pg.insts[i+1]
			rs1, rs2 := c.regs[a.Rs1], c.regs[a.Rs2]
			var cond uint32
			if a.Op == isa.OpSlt {
				cond = boolTo(int32(rs1) < int32(rs2))
			} else {
				cond = boolTo(rs1 < rs2)
			}
			c.stats.Instret += 2
			c.stats.Cycles += 2
			c.SetReg(int(a.Rd), cond)
			var bv1, bv2 uint32
			if b.Rs1 == a.Rd {
				bv1 = cond
			}
			if b.Rs2 == a.Rd {
				bv2 = cond
			}
			taken := bv1 == bv2
			if b.Op == isa.OpBne {
				taken = !taken
			}
			c.stats.Branches++
			if !c.bpred.Update(pc+4, taken) {
				c.stats.Mispredicts++
				c.stats.Cycles += c.mispredict
			}
			if taken {
				c.pc = pc + 4 + uint32(b.Imm)
			} else {
				c.pc = pc + 8
			}
			n += 2
			if c.emitted && c.pendingAfterEmit() {
				return n, nil
			}

		case isa.FuseLoadOp:
			// Dispatch-level fusion only: both halves run their exact
			// scalar step (the load keeps its fault path and checkpoint
			// hooks), back to back in one slot.
			n++
			if err := c.execOne(a); err != nil {
				return n, err
			}
			if c.emitted && c.pendingAfterEmit() {
				return n, nil
			}
			if pg.version != c.phys.PageVersion(pagePA) {
				// The load restored a line of this code page: the second
				// half's decoding may be stale, so it is dispatched
				// afresh from the re-taken page.
				pg = c.dec.page(c.phys, pagePA)
				continue
			}
			if n >= budget {
				return n, nil
			}
			c.stats.Cycles += c.itlb.Access(vpn)
			c.fetchAt(pc+4, pa+4)
			n++
			if err := c.execOne(&pg.insts[i+1]); err != nil {
				return n, err
			}
			if c.emitted && c.pendingAfterEmit() {
				return n, nil
			}
		}
	}
	return n, nil
}

// DebugBlock formats the straight-line run the block executor would
// dispatch from virtual address pc — its dispatch slots, fused pairs,
// and the page version they were decoded under — up to a terminator, a
// fused compare-and-branch or the page end, for differential-harness
// divergence artifacts.
func (c *Core) DebugBlock(pc uint32) string {
	if c.as == nil {
		return "no address space"
	}
	if pc&3 != 0 {
		return fmt.Sprintf("pc %08x unaligned: block execution bypassed", pc)
	}
	pa, _, err := c.as.Translate(pc)
	if err != nil {
		return fmt.Sprintf("pc %08x: translate: %v", pc, err)
	}
	base := pa &^ uint32(pageMask)
	pg := c.dec.page(c.phys, base)
	var body strings.Builder
	var ninstr int
	va := pc
	for i := (pa - base) / isa.InstBytes; i < pageWords; i++ {
		k := pg.kind(c.phys, base, i)
		in := &pg.insts[i]
		fmt.Fprintf(&body, "  %08x  %s", va, opString(in))
		va += isa.InstBytes
		ninstr++
		end := isa.EndsBlock(in)
		if k != isa.FuseNone {
			i++
			fmt.Fprintf(&body, "  [fused %s with]  %08x  %s", k, va, opString(&pg.insts[i]))
			va += isa.InstBytes
			ninstr++
			end = k == isa.FuseCmpBranch
		}
		body.WriteByte('\n')
		if end {
			break
		}
	}
	return fmt.Sprintf("block entry va=%08x pa=%08x version=%d ninstr=%d\n%s",
		pc, pa, pg.version, ninstr, body.String())
}

func opString(in *isa.Predecoded) string {
	if !in.Valid {
		return fmt.Sprintf("invalid(op=%d)", uint8(in.Op))
	}
	return fmt.Sprintf("%-5s rd=%d rs1=%d rs2=%d imm=%d", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm)
}
