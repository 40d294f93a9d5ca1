package indra

import (
	"bytes"
	"reflect"
	"testing"

	"indra/internal/attack"
	"indra/internal/chip"
	"indra/internal/netsim"
	"indra/internal/obs"
	"indra/internal/snapshot"
	"indra/internal/workload"
)

// Every chip cold-boots through bootChip; these tests hold what a
// post-boot snapshot still guarantees to the crash-resume, rewind,
// fleet-revive and difftest paths that restore one.

// TestWarmBootEquivalence restores a chip from a post-boot Save and
// serves it the stream RunService builds (bind, a stack smash after the
// first of three requests): summary, request records and run result
// equal the RunService cold boot's.
func TestWarmBootEquivalence(t *testing.T) {
	opts := Options{Requests: 3, Seed: 1, Attacks: []attack.Kind{attack.StackSmash}}
	cold, err := RunService("bind", opts)
	if err != nil {
		t.Fatalf("RunService: %v", err)
	}

	b, err := bootChip(DefaultChipConfig(), []string{"bind"}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	b.ch, err = snapshot.Load(snapshot.Save(b.ch))
	if err != nil {
		t.Fatalf("Load of a post-boot image: %v", err)
	}
	seq, err := attack.Sequence(attack.StackSmash, b.ch.Process(0).Prog)
	if err != nil {
		t.Fatal(err)
	}
	legit := b.params[0].GenRequests(opts.Requests, opts.Seed)
	stream := append(append(append([]netsim.Request{}, legit[:1]...), seq...), legit[1:]...)
	ch, res, err := b.run(nil, stream, opts.withDefaults().MaxInstructions)
	if err != nil {
		t.Fatalf("restored run: %v", err)
	}

	port := ch.ActivePort(0)
	if got := port.Summarize(); got != cold.Summary {
		t.Errorf("restored summary diverged: got %+v want %+v", got, cold.Summary)
	}
	if !reflect.DeepEqual(port.Records(), cold.Port.Records()) {
		t.Error("restored request records diverged from cold boot")
	}
	if res != cold.Result {
		t.Errorf("restored run result diverged: got %+v want %+v", res, cold.Result)
	}
}

// TestWarmBootFallback truncates a post-boot image: snapshot.Load must
// return an error, not panic and not hand back a chip.
func TestWarmBootFallback(t *testing.T) {
	b, err := bootChip(DefaultChipConfig(), []string{"bind"}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	blob := snapshot.Save(b.ch)
	if _, err := snapshot.Load(blob); err != nil {
		t.Fatalf("Load of the intact image: %v", err)
	}
	for _, cut := range []int{len(blob) / 4, len(blob) / 2, len(blob) - 1} {
		ch, err := snapshot.Load(append([]byte(nil), blob[:cut]...))
		if err == nil || ch != nil {
			t.Errorf("Load of an image cut to %d of %d bytes: chip %v, err %v; want an error", cut, len(blob), ch != nil, err)
		}
	}
}

// TestWarmBootKeyedByConfig checks snapshot.ConfigBytes, the platform
// identity the fleet's boot tally keys on: a FIFO size change is a
// different platform, while the Obs sink and ScalarDispatch, which
// never change output, are not.
func TestWarmBootKeyedByConfig(t *testing.T) {
	base := DefaultChipConfig()
	key := snapshot.ConfigBytes(base)

	fifo := base
	fifo.FIFOEntries = 8
	if bytes.Equal(snapshot.ConfigBytes(fifo), key) {
		t.Error("FIFO sizes 8 and 32 share a platform key")
	}
	observed := base
	observed.Obs = obs.NewCollector()
	if !bytes.Equal(snapshot.ConfigBytes(observed), key) {
		t.Error("an Obs sink changed the platform key")
	}
	scalar := base
	scalar.ScalarDispatch = true
	if !bytes.Equal(snapshot.ConfigBytes(scalar), key) {
		t.Error("ScalarDispatch changed the platform key")
	}
}

// TestWarmBootNode round-trips a six-service node, booted by bootChip
// as the fleet boots its nodes, through Save and Load: the restored
// node serves every service byte-identically to the booted one. More
// services than resurrectee slots is an error.
func TestWarmBootNode(t *testing.T) {
	names := workload.Names()
	cfg := chip.DefaultConfig()
	cfg.Resurrectees = len(names)

	serve := func(ch *chip.Chip) []netsim.Summary {
		t.Helper()
		for s, name := range names {
			params := workload.MustByName(name)
			ch.ActivePort(s).Enqueue(params.GenRequests(2, 1)...)
			if pc, ok := ch.Process(s).Prog.Symbols["main_loop"]; ok {
				ch.Wake(s, pc)
			}
		}
		if _, err := ch.Run(0); err != nil {
			t.Fatal(err)
		}
		out := make([]netsim.Summary, len(names))
		for s := range names {
			out[s] = ch.ActivePort(s).Summarize()
		}
		return out
	}

	b, err := bootChip(cfg, names, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := snapshot.Load(snapshot.Save(b.ch))
	if err != nil {
		t.Fatal(err)
	}
	booted := serve(b.ch)
	if got := serve(restored); !reflect.DeepEqual(booted, got) {
		t.Fatalf("restored node diverges from booted:\nbooted   %+v\nrestored %+v", booted, got)
	}
	for s := range booted {
		if booted[s].Served != 2 {
			t.Fatalf("service %s served %d of 2", names[s], booted[s].Served)
		}
	}

	if _, err := bootChip(chip.DefaultConfig(), names, 1.0); err == nil { // 1 resurrectee
		t.Fatal("bootChip accepted more services than slots")
	}
}
