package fleet

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"indra/internal/chip"
	"indra/internal/netsim"
	"indra/internal/watchdog"
	"indra/internal/workload"
)

// testBoot cold-boots single-service nodes (httpd on slot 0), applying
// a campaign's Arm hook the way the production boot closure does.
func testBoot(t *testing.T, camp Campaign) BootFunc {
	t.Helper()
	params := workload.MustByName("httpd")
	prog, err := params.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	return func(node int) (*chip.Chip, error) {
		cfg := chip.DefaultConfig()
		if camp != nil {
			camp.Arm(node, &cfg)
		}
		ch, err := chip.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := ch.LaunchService(0, "httpd", prog, netsim.NewPort(nil)); err != nil {
			return nil, err
		}
		return ch, nil
	}
}

// run assembles and plays one single-service fleet.
func run(t *testing.T, nodes, rounds, batch int, pol Policy, camp Campaign) *Result {
	t.Helper()
	params := workload.MustByName("httpd")
	f, err := New(Config{
		Nodes:    nodes,
		Services: []string{"httpd"},
		Streams:  [][]netsim.Request{params.GenRequests(rounds*batch, 1)},
		Rounds:   rounds,
		Batch:    batch,
		Policy:   pol,
		Campaign: camp,
		Boot:     testBoot(t, camp),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A clean fleet must serve everything, whatever the policy.
func TestCleanFleetFullAvailability(t *testing.T) {
	for _, pol := range []Policy{NewReactive(), NewRejuvenation(3), NewTMR()} {
		res := run(t, 3, 6, 1, pol, nil)
		if res.Logical != 6 || res.Served != 6 {
			t.Errorf("%s: served %d of %d", pol.Name(), res.Served, res.Logical)
		}
		if res.Availability() != 1.0 {
			t.Errorf("%s: availability %g, want 1", pol.Name(), res.Availability())
		}
		if res.Infections != 0 || res.Ejections != 0 {
			t.Errorf("%s: clean run recorded %d infections, %d ejections",
				pol.Name(), res.Infections, res.Ejections)
		}
	}
}

// Under the worm, the reactive baseline rolls back every detonation but
// never cleans the latent hijack: the node stays compromised for the
// rest of the run and its post-rollback rounds count as re-infected
// exposure.
func TestWormDefeatsReactive(t *testing.T) {
	res := run(t, 3, 9, 3, NewReactive(), NewWorm(0, 2))
	if res.Infections == 0 {
		t.Fatal("worm never landed")
	}
	if res.ChipRecoveries == 0 {
		t.Error("triggers should have forced chip rollbacks")
	}
	if res.ReinfectedRounds == 0 {
		t.Error("rolled-back nodes should count re-infected rounds")
	}
	// Rollback never cleans silent corruption: compromised exposure
	// keeps accruing to the end of the run.
	if res.CompromisedRounds < res.Rounds {
		t.Errorf("CompromisedRounds = %d, want >= %d (compromise is permanent)",
			res.CompromisedRounds, res.Rounds)
	}
	if res.Recoveries != 0 || res.Ejections != 0 {
		t.Errorf("reactive took policy actions: %d recoveries, %d ejections",
			res.Recoveries, res.Ejections)
	}
}

// TMR's vote exposes a compromised replica (diverging bytes or aborted
// detonations) and the revive cleans it — compromise spells stay short
// and total exposure lands far below reactive's.
func TestWormContainedByTMR(t *testing.T) {
	reactive := run(t, 3, 9, 3, NewReactive(), NewWorm(0, 2))
	tmr := run(t, 3, 9, 3, NewTMR(), NewWorm(0, 2))
	if tmr.Infections == 0 {
		t.Fatal("worm never landed under TMR")
	}
	if tmr.Ejections == 0 {
		t.Fatal("TMR never ejected a dissenter")
	}
	if tmr.CompromisedRounds >= reactive.CompromisedRounds {
		t.Errorf("TMR exposure %d not below reactive %d",
			tmr.CompromisedRounds, reactive.CompromisedRounds)
	}
	if tmr.MTTR() >= reactive.MTTR() {
		t.Errorf("TMR MTTR %g not below reactive %g", tmr.MTTR(), reactive.MTTR())
	}
	if tmr.Availability() < reactive.Availability() {
		t.Errorf("TMR availability %g below reactive %g",
			tmr.Availability(), reactive.Availability())
	}
}

// Rejuvenation reboots on schedule and bounds the worm's exposure: a
// compromised node is wiped the next time its rotation slot comes up.
func TestRejuvenationRebootsOnSchedule(t *testing.T) {
	res := run(t, 3, 9, 3, NewRejuvenation(3), NewWorm(0, 2))
	if res.Recoveries != 3 {
		t.Errorf("Recoveries = %d, want 3 (rounds 3, 6, 9 of 9)", res.Recoveries)
	}
	if res.Infections == 0 {
		t.Fatal("worm never landed under rejuvenation")
	}
	reactive := run(t, 3, 9, 3, NewReactive(), NewWorm(0, 2))
	if res.CompromisedRounds >= reactive.CompromisedRounds {
		t.Errorf("rejuvenation exposure %d not below reactive %d",
			res.CompromisedRounds, reactive.CompromisedRounds)
	}
}

// The resurrector-DoS campaign must not be free: the victim's budget
// kills count as chip recoveries and the fleet still serves the legit
// streams (the balancer routes around the wedged node while it churns).
func TestResurrectorDoSSurvivable(t *testing.T) {
	camp := NewResurrectorDoS(0, 7)
	res := run(t, 3, 6, 1, NewReactive(), camp)
	if res.Strikes != 6 {
		t.Errorf("Strikes = %d, want 6 (one hang per round)", res.Strikes)
	}
	if res.ChipRecoveries == 0 {
		t.Error("hang payloads should trip the victim's recovery machinery")
	}
	if res.Availability() < 0.5 {
		t.Errorf("availability %g collapsed under single-node DoS", res.Availability())
	}
}

// The burst campaign strikes every node at once; the per-request
// rollback absorbs the crashes and the fleet keeps serving.
func TestBurstAbsorbed(t *testing.T) {
	camp := NewBurst(3, 11)
	res := run(t, 3, 6, 1, NewReactive(), camp)
	if res.Strikes != 6 {
		t.Errorf("Strikes = %d, want 6 (3 nodes x 2 burst rounds)", res.Strikes)
	}
	if res.ChipRecoveries == 0 {
		t.Error("late-crash payloads should force rollbacks")
	}
	if res.Availability() != 1.0 {
		t.Errorf("availability %g, want 1 (bursts hit only attack requests)", res.Availability())
	}
}

// Determinism: byte-identical results at 1 worker and 8 workers, for
// every campaign x policy pairing.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	campaigns := []func() Campaign{
		func() Campaign { return NewWorm(0, 2) },
		func() Campaign { return NewResurrectorDoS(0, 7) },
		func() Campaign { return NewBurst(3, 11) },
	}
	policies := []func() Policy{NewReactive, func() Policy { return NewRejuvenation(3) }, NewTMR}
	params := workload.MustByName("httpd")
	for _, mkCamp := range campaigns {
		for _, mkPol := range policies {
			var results [2]*Result
			for i, workers := range []int{1, 8} {
				camp, pol := mkCamp(), mkPol()
				f, err := New(Config{
					Nodes:    3,
					Services: []string{"httpd"},
					Streams:  [][]netsim.Request{params.GenRequests(12, 1)},
					Rounds:   6,
					Batch:    2,
					Policy:   pol,
					Campaign: camp,
					Boot:     testBoot(t, camp),
					Workers:  workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				if results[i], err = f.Run(); err != nil {
					t.Fatal(err)
				}
			}
			if *results[0] != *results[1] {
				t.Errorf("%s/%s diverges across worker counts:\n1: %+v\n8: %+v",
					mkCamp().Name(), mkPol().Name(), results[0], results[1])
			}
		}
	}
}

// Config validation rejects unusable fleets.
func TestNewRejectsBadConfig(t *testing.T) {
	params := workload.MustByName("httpd")
	good := Config{
		Nodes:    1,
		Services: []string{"httpd"},
		Streams:  [][]netsim.Request{params.GenRequests(1, 1)},
		Rounds:   1,
		Policy:   NewReactive(),
		Boot:     testBoot(t, nil),
	}
	cases := map[string]func(*Config){
		"no nodes":    func(c *Config) { c.Nodes = 0 },
		"no services": func(c *Config) { c.Services = nil },
		"stream skew": func(c *Config) { c.Streams = nil },
		"no rounds":   func(c *Config) { c.Rounds = 0 },
		"no policy":   func(c *Config) { c.Policy = nil },
		"no boot":     func(c *Config) { c.Boot = nil },
	}
	for name, breakIt := range cases {
		cfg := good
		breakIt(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", name)
		}
	}
}

// A chip replaced by a reboot or a TMR revive is no longer reachable
// from the fleet, so the collector reclaims it, while the three chips
// the nodes run on stay live. A chip refers back to itself through the
// method values it hands its parts, and a finalizer never runs on an
// object inside a cycle, so each chip is watched through its watchdog:
// only the chip holds it, and it is collected only once the chip is.
func TestReplacedChipsReleased(t *testing.T) {
	params := workload.MustByName("httpd")
	f, err := New(Config{
		Nodes:    3,
		Services: []string{"httpd"},
		Streams:  [][]netsim.Request{params.GenRequests(4, 1)},
		Rounds:   2,
		Batch:    2,
		Policy:   NewReactive(),
		Boot:     testBoot(t, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}

	var collected [5]atomic.Bool // rebooted, revived, then nodes 0..2
	watch := func(i int, ch *chip.Chip) {
		runtime.SetFinalizer(ch.Watchdog(), func(*watchdog.Watchdog) { collected[i].Store(true) })
	}
	watch(0, f.nodes[0].ch)
	watch(1, f.nodes[1].ch)
	if err := f.RebootNode(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Revive(1, 2); err != nil {
		t.Fatal(err)
	}
	for i, n := range f.nodes {
		watch(2+i, n.ch)
	}
	for try := 0; try < 100 && !(collected[0].Load() && collected[1].Load()); try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected[0].Load() {
		t.Error("the fleet still reaches the chip RebootNode replaced")
	}
	if !collected[1].Load() {
		t.Error("the fleet still reaches the chip Revive replaced")
	}
	for i := range f.nodes {
		if collected[2+i].Load() {
			t.Errorf("node %d's live chip was collected", i)
		}
	}
	runtime.KeepAlive(f)
}
