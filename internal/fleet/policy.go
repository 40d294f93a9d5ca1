package fleet

// LogicalOutcome is the vote result for one load-balanced request.
type LogicalOutcome struct {
	Service int
	// Served reports whether a strict majority of the replicas answered
	// with byte-identical responses.
	Served bool
	// Dissenters lists replica nodes outside the winning answer —
	// aborted, hung, or answering different bytes. Populated only for
	// replicated requests that reached a majority.
	Dissenters []int
}

// RoundReport is what a policy sees after each round.
type RoundReport struct {
	Round    int
	Logicals []LogicalOutcome
}

// Policy is a pluggable fleet recovery strategy: it chooses which
// replicas serve each request and takes recovery actions after each
// round. Policies act on request outcomes and vote results; a policy
// that clones nodes (TMR revive) additionally consults the fleet's
// donor-health bookkeeping so a revive does not knowingly stamp out a
// compromised image.
type Policy interface {
	Name() string
	// Route picks the replica nodes for one logical request from the
	// serviceable candidates (ascending node ids, never empty).
	Route(f *Fleet, service, round int, candidates []int) []int
	// AfterRound acts on the round's outcomes (reboot, revive, or
	// nothing).
	AfterRound(f *Fleet, rep *RoundReport) error
}

// rotate spreads single-replica traffic round-robin across the
// candidates, staggered per service so one node does not absorb every
// stream the same round.
func rotate(service, round int, candidates []int) []int {
	return []int{candidates[(round+service)%len(candidates)]}
}

// reactive is the paper's baseline lifted to fleet scale: every node
// relies on its own INDRA rollback (detection → checkpoint restore →
// next request) and the fleet layer adds nothing. Cheap — one replica
// per request, no policy actions — but silent corruption that commits
// past a checkpoint is never cleaned, so a wormed node stays
// compromised for the rest of the run.
type reactive struct{}

// NewReactive returns the rollback-only baseline policy.
func NewReactive() Policy { return reactive{} }

func (reactive) Name() string { return "reactive" }

func (reactive) Route(_ *Fleet, service, round int, candidates []int) []int {
	return rotate(service, round, candidates)
}

func (reactive) AfterRound(*Fleet, *RoundReport) error { return nil }

// rejuvenation adds proactive software rejuvenation (cf. SoC
// rejuvenation, arXiv:2301.08018): every Period rounds the next node in
// a rotation is rebooted from its clean boot image, regardless of
// any evidence of compromise. Latent corruption is bounded to at most
// Period·M rounds of exposure, at the cost of the rebooted node's
// queued backlog.
type rejuvenation struct {
	period int
	next   int
}

// NewRejuvenation returns a proactive-rejuvenation policy that reboots
// one node (in rotation) every period rounds.
func NewRejuvenation(period int) Policy {
	if period <= 0 {
		period = 4
	}
	return &rejuvenation{period: period}
}

func (*rejuvenation) Name() string { return "rejuvenation" }

func (*rejuvenation) Route(_ *Fleet, service, round int, candidates []int) []int {
	return rotate(service, round, candidates)
}

func (p *rejuvenation) AfterRound(f *Fleet, rep *RoundReport) error {
	if (rep.Round+1)%p.period != 0 {
		return nil
	}
	target := p.next % f.NodeCount()
	p.next++
	return f.RebootNode(target)
}

// tmr runs every request on three replicas and votes the responses
// (cf. ELZAR's triple modular redundancy, arXiv:1604.00500). A replica
// voted out — wrong bytes, abort, or hang while the other two agree —
// is ejected and revived from a healthy replica's snapshot, so both
// silent and loud compromise are cleaned the round the vote exposes
// them. Costs 3× the serving capacity.
type tmr struct{}

// NewTMR returns the vote-and-revive triple-modular-redundancy policy.
func NewTMR() Policy { return tmr{} }

func (tmr) Name() string { return "tmr" }

func (tmr) Route(_ *Fleet, _, _ int, candidates []int) []int {
	if len(candidates) > 3 {
		candidates = candidates[:3]
	}
	return candidates
}

func (tmr) AfterRound(f *Fleet, rep *RoundReport) error {
	// Collect the round's dissenters once each, in ascending node id —
	// deterministic eject order.
	eject := make([]bool, f.NodeCount())
	for _, lg := range rep.Logicals {
		for _, d := range lg.Dissenters {
			eject[d] = true
		}
	}
	for dst := range eject {
		if !eject[dst] {
			continue
		}
		src := -1
		for _, n := range f.nodes {
			if n.id != dst && !eject[n.id] && n.fatal == nil && !n.compromised {
				src = n.id
				break
			}
		}
		if src < 0 {
			continue // no healthy donor this round; the vote keeps masking
		}
		if err := f.Revive(dst, src); err != nil {
			return err
		}
	}
	return nil
}
