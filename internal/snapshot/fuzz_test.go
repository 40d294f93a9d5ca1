package snapshot

import (
	"errors"
	"testing"

	"indra/internal/chip"
	"indra/internal/netsim"
	"indra/internal/workload"
)

// FuzzSnapshotDecode throws arbitrary bytes at the full decode path —
// envelope, config gates, chip rebuild, payload decode. The contract:
// Load either returns a chip or an error; it never panics, and the
// structural ceilings in decodeConfig (plus the wire reader's
// count-vs-remaining bounds) keep allocations proportional to the
// input, so corrupt blobs cannot OOM the process either.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed with a real mid-run snapshot: mutations of a valid blob
	// explore far deeper decode paths than random prefixes.
	params := workload.MustByName("bind")
	prog, err := params.BuildProgram()
	if err != nil {
		f.Fatal(err)
	}
	ch, err := chip.New(chip.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := ch.LaunchService(0, "bind", prog, netsim.NewPort(params.GenRequests(1, 1))); err != nil {
		f.Fatal(err)
	}
	if _, err := ch.Run(5_000); err != nil && !errors.Is(err, chip.ErrInstrLimit) {
		f.Fatal(err)
	}
	valid := Save(ch)

	// Seeds stay small (a few KiB): the Go fuzz engine's mutator crawls
	// on megabyte corpus entries, and a valid prefix already reaches the
	// envelope, the config gates and the front of the payload. The deep
	// payload decode is covered deterministically by the round-trip
	// tests; the fuzzer's job is proving the decoder never panics.
	prefix := func(n int) []byte {
		if n > len(valid) {
			n = len(valid)
		}
		return valid[:n:n]
	}
	f.Add(prefix(4096))
	f.Add(prefix(256))
	f.Add(prefix(9)) // magic + 1 byte of version
	f.Add([]byte("INDRSNAP"))
	f.Add([]byte{})
	skewed := append([]byte(nil), prefix(64)...)
	skewed[8]++ // version field
	f.Add(skewed)
	flipped := append([]byte(nil), prefix(4096)...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Load(data)
		if err == nil && c == nil {
			t.Fatal("Load returned neither chip nor error")
		}
		if c != nil {
			c.Release()
		}
	})
}
