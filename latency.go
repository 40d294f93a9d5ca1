package indra

import (
	"fmt"
	"strings"

	"indra/internal/attack"
	"indra/internal/chip"
	"indra/internal/netsim"
	"indra/internal/parallel"
)

// Detection latency: how long a malicious request lives — from its
// delivery to the completed rollback. The paper's timing argument
// (Section 3.2.5) bounds the monitor's lag by the FIFO depth and the
// sync rule; this experiment measures the end-to-end consequence.

// LatencyRow is one attack class's detection + recovery latency.
type LatencyRow struct {
	Attack attack.Kind
	// Cycles from request delivery to completed rollback.
	Cycles uint64
	// ShareOfRequest relates the latency to a normal request's
	// response time (how much malicious work runs before containment).
	ShareOfRequest float64
}

// LatencyResult measures per-class detection+recovery latency.
type LatencyResult struct {
	Service string
	MeanRT  float64 // mean legit response time for reference
	Rows    []LatencyRow
}

// DetectionLatency runs each attack class against a service and
// measures the malicious request's lifetime. Each class is an
// independent cell.
func DetectionLatency(o ExpOptions) (*LatencyResult, error) {
	o = o.fill()
	const service = "httpd"

	type out struct {
		rows   []LatencyRow
		meanRT float64
	}
	outs, err := parallel.Run(o.pool(), attack.Kinds(), func(_ int, kind attack.Kind) (out, error) {
		cfg := chip.DefaultConfig()
		cfg.Recovery.InstrBudget = 1_000_000
		opts := o.runOpts(cfg)
		opts.Requests = 3
		opts.Attacks = []attack.Kind{kind}
		opts.AttackAfter = 2
		run, err := RunService(service, opts)
		if err != nil {
			return out{}, err
		}
		c := out{meanRT: run.Summary.MeanRT}
		for _, rec := range run.Port.Records() {
			if rec.Outcome != netsim.Aborted {
				continue
			}
			row := LatencyRow{Attack: kind, Cycles: rec.RespondAt - rec.RecvAt}
			if c.meanRT > 0 {
				row.ShareOfRequest = float64(row.Cycles) / c.meanRT
			}
			c.rows = append(c.rows, row)
			break // first aborted request is the injected exploit
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	res := &LatencyResult{Service: service}
	for _, c := range outs {
		res.MeanRT = c.meanRT // the serial loop kept the last class's mean
		res.Rows = append(res.Rows, c.rows...)
	}
	return res, nil
}

// Format renders the latencies.
func (r *LatencyResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Detection + rollback latency per exploit class (%s; mean legit RT %.0f cyc)\n",
		r.Service, r.MeanRT)
	fmt.Fprintf(&b, "%-14s %14s %16s\n", "attack", "cycles", "vs legit req")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %14d %15.2fx\n", row.Attack, row.Cycles, row.ShareOfRequest)
	}
	return b.String()
}
