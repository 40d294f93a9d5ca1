package chip

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"indra/internal/asm"
	"indra/internal/cpu"
	"indra/internal/netsim"
	"indra/internal/oslite"
)

// hostilePrograms each hand one buffer syscall a buffer that reaches
// unmapped memory, right after receiving their one request. write says
// whether the kernel writes the buffer (recv) or reads it (log, write).
var hostilePrograms = []struct {
	name, src string
	write     bool
}{
	{"recv into unmapped memory", `
_start:
  li r1, 0x50000000
  li r2, 64
  sys 2
  sys 0
`, true},
	{"log from the top granule", `
.data
buf: .space 64
.text
_start:
  la r1, buf
  li r2, 64
  sys 2
  li r1, 0xFFFFFFE0
  li r2, 16
  sys 10
  sys 0
`, false},
	{"64 MiB write from a one-page buffer", `
.data
buf: .space 64
path: .asciiz "out"
.text
_start:
  la r1, buf
  li r2, 64
  sys 2
  la r1, path
  li r2, 0
  sys 5
  la r2, buf
  li r3, 0x4000000
  sys 8
  sys 0
`, false},
}

// TestHostileGuestBuffers: a guest that hands a buffer syscall a bad
// buffer cannot panic, hang or balloon the host. Under every scheme the
// run returns within 5 s having allocated under 1 MiB; with a backup
// scheme the fault is one micro recovery, after which the service finds
// its stream drained and halts, and without one the run ends in the
// unrecoverable-fault error.
func TestHostileGuestBuffers(t *testing.T) {
	schemes := []SchemeKind{SchemeNone, SchemeDelta, SchemeSoftwarePageCopy, SchemeHWVirtualCopy, SchemeUpdateLog}
	for _, hp := range hostilePrograms {
		prog, err := asm.Assemble(hp.src)
		if err != nil {
			t.Fatalf("%s: %v", hp.name, err)
		}
		for _, scheme := range schemes {
			t.Run(fmt.Sprintf("%s/%v", hp.name, scheme), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				port := netsim.NewPort([]netsim.Request{{ID: 1, Payload: make([]byte, 64)}})
				if _, err := c.LaunchService(0, "hostile", prog, port); err != nil {
					t.Fatal(err)
				}

				type outcome struct {
					err    error
					alloc  uint64
					panics any
				}
				done := make(chan outcome, 1)
				go func() {
					defer func() {
						if r := recover(); r != nil {
							done <- outcome{panics: r}
						}
					}()
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					_, err := c.Run(200_000)
					runtime.ReadMemStats(&after)
					done <- outcome{err: err, alloc: after.TotalAlloc - before.TotalAlloc}
				}()
				var o outcome
				select {
				case o = <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("Run still running after 5 s")
				}
				if o.panics != nil {
					t.Fatalf("Run panicked: %v", o.panics)
				}
				if o.alloc >= 1<<20 {
					t.Errorf("Run allocated %d bytes", o.alloc)
				}

				if scheme == SchemeNone {
					var cf *cpu.Fault
					var proc *oslite.ProcFault
					var pf *oslite.PageFault
					if !errors.As(o.err, &cf) || cf.Kind != cpu.FaultSyscall ||
						!errors.As(o.err, &proc) || !errors.As(o.err, &pf) {
						t.Fatalf("got %v, want a syscall fault wrapping a process page fault", o.err)
					}
					if pf.Write != hp.write || pf.Perm != 0 {
						t.Fatalf("page fault %+v, want Write %v of unmapped memory", *pf, hp.write)
					}
					return
				}
				if o.err != nil {
					t.Fatalf("Run: %v", o.err)
				}
				if n := c.Recovery().Stats().MicroRecoveries; n != 1 {
					t.Errorf("%d micro recoveries, want 1", n)
				}
				if p := c.Process(0); !p.Halted {
					t.Error("service still running")
				}
			})
		}
	}
}
