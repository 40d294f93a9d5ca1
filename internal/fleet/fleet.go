// Package fleet simulates a cluster of independent INDRA chips behind
// a load balancer — the fleet-scale question the paper's single-chip
// evaluation leaves open: what does revivable hardware buy when a
// recovered node can be re-infected and the resurrector itself is a
// DoS target?
//
// The model is round-based. Each round the (serial, deterministic)
// controller lets the attack campaign deliver its strikes, routes one
// legitimate request per service stream onto replica nodes chosen by
// the recovery policy, then steps every node chip in parallel until its
// services drain (internal/parallel; chips share no state, so the
// result is byte-identical at any worker count). Back on the
// controller, replica outcomes are voted (a single replica is its own
// majority; TMR compares outcome and response bytes across three), the
// campaign's ground truth — which nodes carry latent compromise — is
// updated from which infection strikes were served, and the policy
// takes its recovery actions: nothing (reactive — the chip's own
// rollback is the paper's baseline), staggered reboots from a
// clean image (proactive rejuvenation), or ejecting the voted-out
// dissenter and reviving it from a healthy replica's snapshot (TMR).
//
// The latent-compromise mechanic rides on the fptr-hijack attack: the
// hijack request completes "successfully", so the dispatch-table
// corruption is committed past the per-request checkpoint — micro
// rollback can never remove it, only a clean reboot (rejuvenation) or
// a state resync from a healthy replica (TMR) can. That asymmetry is
// exactly what the fleet metrics (availability, MTTR, re-infected
// node-rounds) measure.
package fleet

import (
	"fmt"

	"indra/internal/chip"
	"indra/internal/netsim"
	"indra/internal/parallel"
	"indra/internal/snapshot"
)

// BootFunc builds one ready-to-serve node: a chip hosting every fleet
// service (service s on resurrectee slot s) with empty ports. The fleet
// experiment's implementation cold-boots through the indra package's
// boot path; tests boot single-service nodes directly.
type BootFunc func(node int) (*chip.Chip, error)

// Config assembles a fleet run.
type Config struct {
	// Nodes is the cluster size M.
	Nodes int
	// Services names the request streams, one per resurrectee slot on
	// every node (the load balancer's backends are homogeneous).
	Services []string
	// Streams holds the legitimate request stream per service; round r
	// delivers Streams[s][r*Batch : (r+1)*Batch] (clipped at the
	// stream's end).
	Streams [][]netsim.Request
	// Batch is the number of legitimate requests each service stream
	// delivers per round (0 selects 1). Larger batches give a voting
	// policy more per-round evidence.
	Batch int
	// Rounds is the fleet-clock length of the run.
	Rounds int
	// RoundInstr caps one node's instructions per round (a stuck round
	// carries its request into the next; 0 selects 30M).
	RoundInstr uint64
	// Policy is the recovery policy under test.
	Policy Policy
	// Campaign is the attack campaign (nil = clean traffic only).
	Campaign Campaign
	// Boot builds replacement nodes too (proactive rejuvenation).
	Boot BootFunc
	// Run, when non-nil, replaces the single ch.Run call that steps a
	// node each round (the resume-equivalence harness substitutes a
	// segmented snapshot→restore loop). It may return a different chip
	// — one revived from a snapshot blob — which the node adopts; the
	// fleet's output must be byte-identical either way.
	Run func(ch *chip.Chip, maxInstr uint64) (*chip.Chip, chip.RunResult, error)
	// Workers bounds how many nodes step concurrently (0 = GOMAXPROCS,
	// 1 = serial; output is identical either way).
	Workers int
	// Meter, when non-nil, accumulates node-step counts and times.
	Meter *parallel.Meter
}

// node is one INDRA chip plus the controller's ground-truth view of it.
// Service s's port and program are read from the chip's slot s.
type node struct {
	id   int
	ch   *chip.Chip
	wake []uint32 // request-loop entry PC per service
	enq  []uint64 // per-service request ids handed out so far

	fatal error // unrecoverable chip fault: the node is dead
	stuck int   // rounds that hit the per-round instruction cap

	// compromised is the campaign's ground truth: a served infection
	// strike left latent corruption the chip's rollback cannot remove.
	compromised bool
	// chipRec counts the chip's own recovery actions (micro + macro
	// rollbacks) observed so far; recBase is the current chip's counter
	// baseline (reset when a reboot or revive replaces the chip).
	chipRec   uint64
	recBase   uint64
	policyRec int // policy-level recovery actions (reboots, revives)
}

// recovered reports whether the node has ever been recovered — by its
// own chip (rollback) or by the policy (reboot, revive). Compromised
// rounds after this point are the re-infection cost a policy failed to
// prevent.
func (n *node) recovered() bool { return n.chipRec > 0 || n.policyRec > 0 }

// Fleet is one cluster simulation.
type Fleet struct {
	cfg   Config
	nodes []*node
	pool  parallel.Pool
	res   Result
}

// Result aggregates one fleet run.
type Result struct {
	Policy   string
	Campaign string
	Nodes    int
	Rounds   int

	// Logical counts load-balanced legitimate requests (a TMR triplet
	// is one logical request); Served counts those the fleet answered
	// (by majority for replicated requests).
	Logical int
	Served  int

	// Strikes counts delivered attack requests; Infections counts the
	// served infection strikes that newly compromised a node.
	Strikes    int
	Infections int

	// CompromisedRounds is node-rounds spent latently compromised;
	// ReinfectedRounds is the subset on nodes that had already been
	// recovered at least once — the re-infection exposure the policy
	// failed to close. MTTR derives from these.
	CompromisedRounds int
	ReinfectedRounds  int

	// Recoveries counts policy-level actions (rejuvenation reboots +
	// TMR revives); Ejections the TMR vote-outs; ChipRecoveries the
	// chips' own micro/macro rollbacks fleet-wide.
	Recoveries     int
	Ejections      int
	ChipRecoveries uint64

	// DroppedInReboots counts queued requests lost when a reboot
	// discarded a node's backlog; StuckRounds counts node-rounds that
	// hit the instruction cap; DownSlots counts service slots dead at
	// run end.
	DroppedInReboots int
	StuckRounds      int
	DownSlots        int
}

// Availability is the fleet-level served fraction of logical requests.
func (r *Result) Availability() float64 {
	if r.Logical == 0 {
		return 0
	}
	return float64(r.Served) / float64(r.Logical)
}

// MTTR is the mean compromised-spell length in rounds (spells still
// open at run end are censored there — reactive's "never" shows up as
// a spell as long as the run).
func (r *Result) MTTR() float64 {
	if r.Infections == 0 {
		return 0
	}
	return float64(r.CompromisedRounds) / float64(r.Infections)
}

// Lost is the logical requests the fleet failed to serve.
func (r *Result) Lost() int { return r.Logical - r.Served }

// New boots the fleet. Nodes boot serially in id order, and reboots
// happen on the controller, so Boot is never called concurrently and
// sees a deterministic sequence of node ids.
func New(cfg Config) (*Fleet, error) {
	switch {
	case cfg.Nodes <= 0:
		return nil, fmt.Errorf("fleet: need at least one node")
	case len(cfg.Services) == 0:
		return nil, fmt.Errorf("fleet: need at least one service")
	case len(cfg.Streams) != len(cfg.Services):
		return nil, fmt.Errorf("fleet: %d streams for %d services", len(cfg.Streams), len(cfg.Services))
	case cfg.Rounds <= 0:
		return nil, fmt.Errorf("fleet: need at least one round")
	case cfg.Policy == nil:
		return nil, fmt.Errorf("fleet: need a recovery policy")
	case cfg.Boot == nil:
		return nil, fmt.Errorf("fleet: need a boot function")
	}
	if cfg.RoundInstr == 0 {
		cfg.RoundInstr = 30_000_000
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	f := &Fleet{
		cfg:  cfg,
		pool: parallel.Pool{Workers: cfg.Workers, Meter: cfg.Meter},
	}
	f.res.Policy = cfg.Policy.Name()
	if cfg.Campaign != nil {
		f.res.Campaign = cfg.Campaign.Name()
	} else {
		f.res.Campaign = "none"
	}
	f.res.Nodes, f.res.Rounds = cfg.Nodes, cfg.Rounds
	for i := 0; i < cfg.Nodes; i++ {
		n := &node{id: i}
		ch, err := cfg.Boot(i)
		if err != nil {
			return nil, fmt.Errorf("fleet: boot node %d: %w", i, err)
		}
		if err := f.install(n, ch); err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	return f, nil
}

// install points a node at a (fresh or restored) chip.
func (f *Fleet) install(n *node, ch *chip.Chip) error {
	if ch.CoreCount() < len(f.cfg.Services) {
		return fmt.Errorf("fleet: node %d booted with %d slots for %d services",
			n.id, ch.CoreCount(), len(f.cfg.Services))
	}
	wake := make([]uint32, len(f.cfg.Services))
	for s, name := range f.cfg.Services {
		if ch.ActivePort(s) == nil {
			return fmt.Errorf("fleet: node %d booted without service %s on slot %d", n.id, name, s)
		}
		pc, ok := ch.Process(s).Prog.Symbols["main_loop"]
		if !ok {
			return fmt.Errorf("fleet: service %s image lacks the main_loop symbol", name)
		}
		wake[s] = pc
	}
	n.ch, n.wake = ch, wake
	n.enq = make([]uint64, len(f.cfg.Services))
	n.recBase = chipRecoveries(ch)
	n.fatal = nil
	return nil
}

// chipRecoveries reads a chip's cumulative rollback count.
func chipRecoveries(ch *chip.Chip) uint64 {
	st := ch.Recovery().Stats()
	return st.MicroRecoveries + st.MacroRecoveries
}

// slotUp reports whether service s on node n can accept traffic: the
// node is alive, the slot is not degraded, and its process is either
// running or drained-and-wakeable (halted mid-request = dead).
func (f *Fleet) slotUp(n *node, s int) bool {
	if n.fatal != nil {
		return false
	}
	if n.ch.Degraded(s) {
		return false
	}
	p := n.ch.Process(s)
	if p == nil {
		return false
	}
	return !(p.Halted && p.CurrentReq != 0)
}

// upNodesFor lists the nodes whose slot for service s is serviceable,
// in ascending id order (the balancer's candidate set).
func (f *Fleet) upNodesFor(s int) []int {
	var out []int
	for _, n := range f.nodes {
		if f.slotUp(n, s) {
			out = append(out, n.id)
		}
	}
	return out
}

// enqueue delivers one request to a node's service port under the
// node's own id sequence (replicas of a logical request get per-node
// ids; a revived clone inherits its source's sequence with its port
// state, keeping replica streams aligned). Payload bytes are cloned —
// concurrently stepping chips must never share request buffers.
func (f *Fleet) enqueue(n *node, s int, req netsim.Request) uint64 {
	n.enq[s]++
	id := n.enq[s]
	n.ch.ActivePort(s).Enqueue(netsim.Request{
		ID:      id,
		Payload: append([]byte(nil), req.Payload...),
		Label:   req.Label,
	})
	return id
}

// delivery locates one replica of a logical request.
type delivery struct {
	node int
	id   uint64
}

// logical is one load-balanced legitimate request and its replicas.
type logical struct {
	service    int
	deliveries []delivery
}

// infectRef tracks an infection strike so its outcome can be read back.
type infectRef struct {
	node, service int
	id            uint64
}

// Run plays every round and returns the fleet result.
func (f *Fleet) Run() (*Result, error) {
	for round := 0; round < f.cfg.Rounds; round++ {
		if err := f.playRound(round); err != nil {
			return nil, err
		}
	}
	for _, n := range f.nodes {
		f.res.ChipRecoveries += n.chipRec
		f.res.StuckRounds += n.stuck
		for s := range f.cfg.Services {
			if !f.slotUp(n, s) {
				f.res.DownSlots++
			}
		}
	}
	return &f.res, nil
}

func (f *Fleet) playRound(round int) error {
	// 1. The campaign strikes first: infections and detonations land
	// ahead of the round's legitimate traffic.
	var infects []infectRef
	if f.cfg.Campaign != nil {
		strikes, err := f.cfg.Campaign.Strikes(f, round)
		if err != nil {
			return fmt.Errorf("fleet: campaign %s round %d: %w", f.cfg.Campaign.Name(), round, err)
		}
		for _, s := range strikes {
			if s.Node < 0 || s.Node >= len(f.nodes) || s.Service < 0 || s.Service >= len(f.cfg.Services) {
				return fmt.Errorf("fleet: campaign strike out of range (node %d, service %d)", s.Node, s.Service)
			}
			n := f.nodes[s.Node]
			if !f.slotUp(n, s.Service) {
				continue // a dead backend absorbs nothing
			}
			id := f.enqueue(n, s.Service, s.Req)
			f.res.Strikes++
			if s.Infects {
				infects = append(infects, infectRef{s.Node, s.Service, id})
			}
		}
	}

	// 2. The balancer routes the round's batch of each service stream
	// onto the policy's replica choice.
	var logicals []logical
	for s := range f.cfg.Services {
		for b := 0; b < f.cfg.Batch; b++ {
			idx := round*f.cfg.Batch + b
			if idx >= len(f.cfg.Streams[s]) {
				break
			}
			req := f.cfg.Streams[s][idx]
			f.res.Logical++
			lg := logical{service: s}
			if cands := f.upNodesFor(s); len(cands) > 0 {
				for _, ni := range f.cfg.Policy.Route(f, s, round, cands) {
					id := f.enqueue(f.nodes[ni], s, req)
					lg.deliveries = append(lg.deliveries, delivery{ni, id})
				}
			}
			logicals = append(logicals, lg)
		}
	}

	// 3. Step every node until its services drain (or the round cap
	// hits). Chips are fully independent; only this phase is parallel.
	_, _ = parallel.Run(f.pool, f.nodes, func(_ int, n *node) (struct{}, error) {
		if n.fatal != nil {
			return struct{}{}, nil
		}
		for s := range f.cfg.Services {
			n.ch.Wake(s, n.wake[s])
		}
		var err error
		if f.cfg.Run != nil {
			n.ch, _, err = f.cfg.Run(n.ch, f.cfg.RoundInstr)
		} else {
			_, err = n.ch.Run(f.cfg.RoundInstr)
		}
		switch err {
		case nil:
		case chip.ErrInstrLimit:
			n.stuck++
		default:
			n.fatal = err
		}
		return struct{}{}, nil
	})

	// 4. Ground truth: which infection strikes were served (silent
	// corruption committed past the checkpoint).
	for _, inf := range infects {
		n := f.nodes[inf.node]
		if rec, ok := n.ch.ActivePort(inf.service).Record(inf.id); ok && rec.Outcome == netsim.Served && !n.compromised {
			n.compromised = true
			f.res.Infections++
		}
	}

	// 5. Vote replica outcomes into the round report.
	rep := &RoundReport{Round: round}
	for _, lg := range logicals {
		out := f.vote(lg)
		if out.Served {
			f.res.Served++
		}
		rep.Logicals = append(rep.Logicals, out)
	}

	// 6. Account the chips' own recoveries, then the compromise ledger
	// (before policy actions: a same-round clean still cost one round).
	for _, n := range f.nodes {
		if n.fatal != nil {
			continue
		}
		if cur := chipRecoveries(n.ch); cur > n.recBase {
			n.chipRec += cur - n.recBase
			n.recBase = cur
		}
	}
	for _, n := range f.nodes {
		if n.compromised {
			f.res.CompromisedRounds++
			if n.recovered() {
				f.res.ReinfectedRounds++
			}
		}
	}

	// 7. The policy acts on what the round exposed.
	return f.cfg.Policy.AfterRound(f, rep)
}

// vote decides a logical request: served when a strict majority of its
// replicas served byte-identical responses (one replica is its own
// majority). Replicas outside the winning answer — aborted, hung, or
// answering different bytes — are the dissenters a voting policy
// ejects. No-majority rounds serve nothing and name no dissenter (the
// vote cannot tell who is wrong).
func (f *Fleet) vote(lg logical) LogicalOutcome {
	out := LogicalOutcome{Service: lg.service}
	if len(lg.deliveries) == 0 {
		return out // no healthy backend: the request is lost
	}
	type ballot struct {
		resp  string
		nodes []int
	}
	var ballots []ballot
	for _, d := range lg.deliveries {
		rec, ok := f.nodes[d.node].ch.ActivePort(lg.service).Record(d.id)
		if !ok || rec.Outcome != netsim.Served {
			continue // non-served replicas dissent from any winner below
		}
		resp := string(rec.Response)
		placed := false
		for i := range ballots {
			if ballots[i].resp == resp {
				ballots[i].nodes = append(ballots[i].nodes, d.node)
				placed = true
				break
			}
		}
		if !placed {
			ballots = append(ballots, ballot{resp: resp, nodes: []int{d.node}})
		}
	}
	maj := len(lg.deliveries)/2 + 1
	for _, b := range ballots {
		if len(b.nodes) < maj {
			continue
		}
		out.Served = true
		if len(lg.deliveries) > 1 {
			in := make(map[int]bool, len(b.nodes))
			for _, id := range b.nodes {
				in[id] = true
			}
			for _, d := range lg.deliveries {
				if !in[d.node] {
					out.Dissenters = append(out.Dissenters, d.node)
				}
			}
		}
		break
	}
	return out
}

// RebootNode replaces a node with a freshly booted one — proactive
// rejuvenation's clean-image restart. The old chip's queued backlog is
// dropped (clients see a brief outage), latent compromise is wiped,
// and the action counts as a policy recovery.
func (f *Fleet) RebootNode(i int) error {
	if i < 0 || i >= len(f.nodes) {
		return fmt.Errorf("fleet: reboot of unknown node %d", i)
	}
	n := f.nodes[i]
	for s := range f.cfg.Services {
		f.res.DroppedInReboots += n.ch.ActivePort(s).Remaining()
	}
	ch, err := f.cfg.Boot(i)
	if err != nil {
		return fmt.Errorf("fleet: reboot node %d: %w", i, err)
	}
	if err := f.install(n, ch); err != nil {
		return err
	}
	n.compromised = false
	n.policyRec++
	f.res.Recoveries++
	return nil
}

// Revive replaces node dst with a byte-exact clone of node src — the
// TMR resync of an ejected dissenter from a healthy replica. The clone
// carries src's full chip state (including its ports and id sequence),
// so the revived replica rejoins the vote in lockstep.
func (f *Fleet) Revive(dst, src int) error {
	if dst < 0 || dst >= len(f.nodes) || src < 0 || src >= len(f.nodes) || dst == src {
		return fmt.Errorf("fleet: revive %d from %d out of range", dst, src)
	}
	from := f.nodes[src]
	ch, err := snapshot.Load(snapshot.Save(from.ch))
	if err != nil {
		return fmt.Errorf("fleet: revive node %d from %d: %w", dst, src, err)
	}
	n := f.nodes[dst]
	if err := f.install(n, ch); err != nil {
		return err
	}
	copy(n.enq, from.enq)
	n.compromised = from.compromised
	n.policyRec++
	f.res.Recoveries++
	f.res.Ejections++
	return nil
}

// NodeCount returns the cluster size.
func (f *Fleet) NodeCount() int { return len(f.nodes) }

// Compromised reports a node's ground-truth latent-compromise state
// (campaign bookkeeping; the simulated software cannot see this).
func (f *Fleet) Compromised(i int) bool { return f.nodes[i].compromised }

// NodeSnapshot serializes a node's full chip state — the divergence
// artifact the CI fleet-golden job uploads for offline replay.
func (f *Fleet) NodeSnapshot(i int) []byte { return snapshot.Save(f.nodes[i].ch) }
