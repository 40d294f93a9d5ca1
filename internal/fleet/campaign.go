package fleet

import (
	"fmt"

	"indra/internal/attack"
	"indra/internal/chip"
	"indra/internal/faultinject"
	"indra/internal/netsim"
)

// Strike is one attack request aimed at a specific backend.
type Strike struct {
	Node    int
	Service int
	Req     netsim.Request
	// Infects marks silent-corruption payloads: if the strike is
	// served, the target node becomes latently compromised.
	Infects bool
}

// Campaign is a fleet-wide attack scenario. Arm lets a campaign bend a
// node's chip configuration before boot (fault-injection plans, tuned
// monitor parameters); Strikes emits the round's attack requests.
// Campaigns read the fleet's ground truth (which nodes are compromised)
// — the attacker knows where its worm landed.
type Campaign interface {
	Name() string
	Arm(node int, cfg *chip.Config)
	Strikes(f *Fleet, round int) ([]Strike, error)
}

// worm models self-propagating compromise: every already-compromised
// node is sent a trigger each round (detonating the hijacked dispatch
// slot against legitimate-looking traffic), and every spread rounds the
// first still-clean node is sent a fresh fptr-hijack infection. A
// recovered-but-unclean node is immediately re-infectable — the metric
// that separates rollback-only recovery from rejuvenation and TMR.
type worm struct {
	service int
	spread  int
}

// NewWorm returns a worm campaign propagating through the given
// service's request stream, infecting a new node every spread rounds
// (the worm's scan-and-exploit cadence; <= 0 selects 2).
func NewWorm(service, spread int) Campaign {
	if spread <= 0 {
		spread = 2
	}
	return &worm{service: service, spread: spread}
}

func (*worm) Name() string { return "worm" }

func (*worm) Arm(int, *chip.Config) {}

func (w *worm) Strikes(f *Fleet, round int) ([]Strike, error) {
	if round == 0 {
		return nil, nil // the worm needs a round of recon first
	}
	var out []Strike
	infect := (round-1)%w.spread == 0
	for i := 0; i < f.NodeCount(); i++ {
		if !f.slotUp(f.nodes[i], w.service) {
			continue
		}
		if f.Compromised(i) {
			out = append(out, Strike{Node: i, Service: w.service, Req: attack.NewFptrTrigger()})
			continue
		}
		if infect {
			req, err := attack.NewFptrHijack(f.nodes[i].ch.Process(w.service).Prog)
			if err != nil {
				return nil, fmt.Errorf("worm: %w", err)
			}
			out = append(out, Strike{Node: i, Service: w.service, Req: req, Infects: true})
			infect = false
		}
	}
	return out, nil
}

// resurrectorDoS targets the recovery machinery itself rather than the
// services: one victim node's monitor is degraded (stall faults on the
// trace FIFO consumer, a tight heartbeat) and every round a hang
// payload lands on a rotating victim service — the attacker tries to
// wedge the node faster than its resurrector can kill the hangs.
type resurrectorDoS struct {
	victim int
	seed   uint64
}

// NewResurrectorDoS returns a campaign that floods one node's monitor
// with hang-detection work while stall faults slow the monitor down.
func NewResurrectorDoS(victim int, seed uint64) Campaign {
	return &resurrectorDoS{victim: victim, seed: seed}
}

func (*resurrectorDoS) Name() string { return "dos-resurrector" }

func (c *resurrectorDoS) Arm(node int, cfg *chip.Config) {
	if node != c.victim {
		return
	}
	cfg.Faults = append(append([]faultinject.Plan(nil), cfg.Faults...), faultinject.Plan{
		Site: faultinject.SiteMonitorStall,
		Rate: 0.05,
		Seed: c.seed,
	})
	cfg.HeartbeatInterval = 200_000
}

func (c *resurrectorDoS) Strikes(f *Fleet, round int) ([]Strike, error) {
	s := round % len(f.cfg.Services)
	return []Strike{{Node: c.victim, Service: s, Req: attack.NewDoSHang()}}, nil
}

// burst models correlated failure: low-rate FIFO-drop faults armed on
// every node (shared-infrastructure flakiness) plus a synchronized
// late-crash payload hitting every node at once every few rounds — the
// whole fleet recovers simultaneously instead of one node at a time.
type burst struct {
	every int
	seed  uint64
}

// NewBurst returns a correlated-burst campaign striking every node
// simultaneously every `every` rounds.
func NewBurst(every int, seed uint64) Campaign {
	if every <= 0 {
		every = 3
	}
	return &burst{every: every, seed: seed}
}

func (*burst) Name() string { return "burst" }

func (c *burst) Arm(_ int, cfg *chip.Config) {
	// The drop rate is per FIFO push and a request pushes thousands of
	// trace entries, so rare flakiness needs a rate orders of magnitude
	// below the per-request scale (higher rates false-positive-abort
	// most legitimate traffic). One shared seed: the flakiness is
	// correlated across the fleet, and identically-armed nodes share a
	// warm-boot platform.
	cfg.Faults = append(append([]faultinject.Plan(nil), cfg.Faults...), faultinject.Plan{
		Site: faultinject.SiteFIFODrop,
		Rate: 0.000001,
		Seed: c.seed,
	})
}

func (c *burst) Strikes(f *Fleet, round int) ([]Strike, error) {
	if round%c.every != c.every-1 {
		return nil, nil
	}
	s := (round / c.every) % len(f.cfg.Services)
	var out []Strike
	for i := 0; i < f.NodeCount(); i++ {
		out = append(out, Strike{Node: i, Service: s, Req: attack.NewDoSLateCrash()})
	}
	return out, nil
}
