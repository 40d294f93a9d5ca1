package indra

import (
	"fmt"
	"strings"

	"indra/internal/chip"
	"indra/internal/fleet"
	"indra/internal/netsim"
	"indra/internal/parallel"
	"indra/internal/snapshot"
	"indra/internal/workload"
)

// This file runs the fleet-resilience experiment: M independent INDRA
// chips behind a load balancer, attacked by propagating campaigns,
// under each pluggable recovery policy (internal/fleet). It answers
// the question the paper's single-chip evaluation leaves open — what
// the revivable architecture buys at cluster scale when recovered
// nodes can be re-infected — and reports per-policy availability,
// MTTR, and re-infection exposure.

// FleetPolicies lists the recovery policies the experiment compares,
// in report order.
var FleetPolicies = []string{"reactive", "rejuvenation", "tmr"}

// FleetCampaigns lists the attack campaigns, in report order.
var FleetCampaigns = []string{"worm", "dos-resurrector", "burst"}

// fleetPolicy builds a recovery policy by registry name.
func fleetPolicy(name string) (fleet.Policy, error) {
	switch name {
	case "reactive":
		return fleet.NewReactive(), nil
	case "rejuvenation":
		return fleet.NewRejuvenation(3), nil
	case "tmr":
		return fleet.NewTMR(), nil
	}
	return nil, fmt.Errorf("unknown fleet policy %q (have %s)", name, strings.Join(FleetPolicies, ", "))
}

// fleetCampaign builds an attack campaign by registry name. The worm
// propagates through httpd (stream index 1); the resurrector DoS pins
// node 0; seeds derive from the experiment seed so the key fully
// determines the run.
func fleetCampaign(name string, seed uint32) (fleet.Campaign, error) {
	switch name {
	case "worm":
		return fleet.NewWorm(1, 2), nil
	case "dos-resurrector":
		return fleet.NewResurrectorDoS(0, uint64(seed)), nil
	case "burst":
		return fleet.NewBurst(3, uint64(seed)+101), nil
	}
	return nil, fmt.Errorf("unknown fleet campaign %q (have %s)", name, strings.Join(FleetCampaigns, ", "))
}

// fleetRounds derives the fleet clock from the request knob: three
// rounds per requested unit, two legitimate requests per service
// stream per round.
func fleetRounds(o ExpOptions) (rounds, batch int) { return 3 * o.Requests, 2 }

// FleetBoots tallies one fleet cell's node boots — one per node, plus
// every rejuvenation reboot — against the distinct node platforms they
// brought up, keyed by the armed chip config's snapshot.ConfigBytes.
type FleetBoots struct {
	Total     int
	Platforms int
	seen      map[string]bool
}

// note counts one node boot on platform cfg.
func (b *FleetBoots) note(cfg chip.Config) {
	b.Total++
	if key := string(snapshot.ConfigBytes(cfg)); !b.seen[key] {
		b.seen[key] = true
		b.Platforms++
	}
}

// FleetCell assembles the fleet for one campaign x policy cell — every
// node serving all six services, cold-booted by bootChip, streams cut
// from the experiment seed — and the tally its node boots fill as the
// fleet runs. Tests use it to replay a cell and dump node snapshots;
// Fleet() runs it for every pairing.
func FleetCell(o ExpOptions, campaign, policy string) (*fleet.Fleet, *FleetBoots, error) {
	o = o.fill()
	nodes := o.FleetNodes
	if nodes == 0 {
		nodes = 3
	}
	if nodes < 1 || nodes > 64 {
		return nil, nil, fmt.Errorf("fleet: node count %d out of range 1..64", nodes)
	}
	pol, err := fleetPolicy(policy)
	if err != nil {
		return nil, nil, err
	}
	camp, err := fleetCampaign(campaign, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	names := workload.Names()
	cfg := DefaultChipConfig()
	cfg.Resurrectees = len(names)
	// Hang payloads must die by liveness budget well inside a round.
	cfg.Recovery.InstrBudget = 1_000_000

	// The fleet boots nodes from its controller, never concurrently.
	boots := &FleetBoots{seen: make(map[string]bool)}
	boot := func(node int) (*chip.Chip, error) {
		ncfg := cfg
		camp.Arm(node, &ncfg)
		boots.note(ncfg)
		b, err := bootChip(ncfg, names, o.Scale)
		if err != nil {
			return nil, err
		}
		return b.ch, nil
	}

	rounds, batch := fleetRounds(o)
	streams := make([][]netsim.Request, len(names))
	for s, name := range names {
		params := workload.MustByName(name)
		if o.Scale != 1.0 {
			params = params.Scale(o.Scale)
		}
		streams[s] = params.GenRequests(rounds*batch, o.Seed)
	}
	f, err := fleet.New(fleet.Config{
		Nodes:    nodes,
		Services: names,
		Streams:  streams,
		Rounds:   rounds,
		Batch:    batch,
		Policy:   pol,
		Campaign: camp,
		Boot:     boot,
		Run:      o.RunLoop,
		Workers:  o.Workers,
		Meter:    o.Meter,
	})
	if err != nil {
		return nil, nil, err
	}
	return f, boots, nil
}

// FleetRow is one campaign x policy cell's aggregate outcome.
type FleetRow struct {
	Campaign string
	Policy   string
	Res      fleet.Result
	Boots    FleetBoots
}

// FleetResult holds the full campaign x policy matrix.
type FleetResult struct {
	Nodes  int
	Rounds int
	Batch  int
	Rows   []FleetRow
}

// Fleet runs the fleet-resilience experiment: every attack campaign
// against every recovery policy (or just o.FleetPolicy when set), each
// cell an independent cluster simulation fanned out on the pool.
func Fleet(o ExpOptions) (*FleetResult, error) {
	o = o.fill()
	policies := FleetPolicies
	if o.FleetPolicy != "" {
		if _, err := fleetPolicy(o.FleetPolicy); err != nil {
			return nil, err
		}
		policies = []string{o.FleetPolicy}
	}
	type spec struct{ campaign, policy string }
	var cells []spec
	for _, c := range FleetCampaigns {
		for _, p := range policies {
			cells = append(cells, spec{c, p})
		}
	}
	rows, err := parallel.Run(o.pool(), cells, func(_ int, c spec) (FleetRow, error) {
		f, boots, err := FleetCell(o, c.campaign, c.policy)
		if err != nil {
			return FleetRow{}, err
		}
		res, err := f.Run()
		if err != nil {
			return FleetRow{}, err
		}
		return FleetRow{Campaign: c.campaign, Policy: c.policy, Res: *res, Boots: *boots}, nil
	})
	if err != nil {
		return nil, err
	}
	rounds, batch := fleetRounds(o)
	nodes := o.FleetNodes
	if nodes == 0 {
		nodes = 3
	}
	return &FleetResult{Nodes: nodes, Rounds: rounds, Batch: batch, Rows: rows}, nil
}

// Format renders the experiment as text. The "warm h/m" column is each
// cell's FleetBoots: boots that repeat a platform over distinct
// platforms (the hit/miss split a per-platform boot cache would see).
func (r *FleetResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet resilience: %d nodes x %d services, %d rounds x %d requests/stream\n",
		r.Nodes, len(workload.Names()), r.Rounds, r.Batch)
	fmt.Fprintf(&b, "%-16s %-13s %7s %8s %7s %9s %5s %6s %6s %9s %8s\n",
		"campaign", "policy", "avail%", "mttr-rd", "infect", "reinf-rd", "lost", "recov", "eject", "chip-rec", "warm h/m")
	for _, row := range r.Rows {
		res := row.Res
		fmt.Fprintf(&b, "%-16s %-13s %7.2f %8.1f %7d %9d %5d %6d %6d %9d %8s\n",
			row.Campaign, row.Policy,
			res.Availability()*100, res.MTTR(),
			res.Infections, res.ReinfectedRounds, res.Lost(),
			res.Recoveries, res.Ejections, res.ChipRecoveries,
			fmt.Sprintf("%d/%d", row.Boots.Total-row.Boots.Platforms, row.Boots.Platforms))
	}
	return b.String()
}
