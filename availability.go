package indra

import (
	"fmt"
	"strings"

	"indra/internal/attack"
	"indra/internal/chip"
	"indra/internal/netsim"
	"indra/internal/parallel"
)

// The availability experiment quantifies the paper's motivation
// (Sections 1 and 2.2): under recurring remote exploits, conventional
// restart-based recovery loses the requests that arrive during each
// outage and pays the full reboot latency per attack, while INDRA's
// micro recovery repairs the damage in ~10^3 cycles and serves every
// legitimate client.

// AvailabilityRow is one recovery strategy's outcome.
type AvailabilityRow struct {
	Strategy     string
	LegitServed  int
	LegitTotal   int
	TotalCycles  uint64
	Availability float64 // served / total legitimate requests
}

// AvailabilityResult compares INDRA micro recovery against reboots
// under an attack-every-other-request barrage.
type AvailabilityResult struct {
	Service string
	Rows    []AvailabilityRow
}

// Availability runs the comparison; the two strategies are independent
// cells, each building its own program and attack-laced stream.
func Availability(o ExpOptions) (*AvailabilityResult, error) {
	o = o.fill()
	const service = "bind"

	type cell struct {
		strategy string
		mutate   func(*chip.Config)
	}
	cells := []cell{
		{"indra-micro", func(c *chip.Config) {}},
		{"reboot", func(c *chip.Config) {
			c.Scheme = chip.SchemeNone
			c.RebootRecovery = true
		}},
	}
	rows, err := parallel.Run(o.pool(), cells, func(_ int, c cell) (AvailabilityRow, error) {
		cfg := chip.DefaultConfig()
		c.mutate(&cfg)
		b, err := bootChip(cfg, []string{service}, o.Scale)
		if err != nil {
			return AvailabilityRow{}, err
		}
		smash, err := attack.NewStackSmash(b.ch.Process(0).Prog)
		if err != nil {
			return AvailabilityRow{}, err
		}
		var stream []netsim.Request
		for _, rq := range b.params[0].GenRequests(o.Requests, o.Seed) {
			a := smash
			a.Payload = append([]byte(nil), smash.Payload...)
			stream = append(stream, a, rq) // attack, legit, attack, legit...
		}
		ch, result, err := b.run(o.RunLoop, stream, 0)
		if err != nil {
			return AvailabilityRow{}, err
		}
		served, total := 0, 0
		for _, r := range ch.ActivePort(0).Records() {
			if r.Label != "legit" {
				continue
			}
			total++
			if r.Outcome == netsim.Served {
				served++
			}
		}
		return AvailabilityRow{
			Strategy:     c.strategy,
			LegitServed:  served,
			LegitTotal:   total,
			TotalCycles:  result.Cycles,
			Availability: float64(served) / float64(total),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &AvailabilityResult{Service: service, Rows: rows}, nil
}

// Format renders the comparison.
func (r *AvailabilityResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Availability under recurring exploits (%s, attack before every legit request)\n", r.Service)
	fmt.Fprintf(&b, "%-12s %14s %14s %14s\n", "strategy", "legit served", "availability", "total cycles")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %8d/%-5d %13.0f%% %14d\n",
			row.Strategy, row.LegitServed, row.LegitTotal, row.Availability*100, row.TotalCycles)
	}
	return b.String()
}
