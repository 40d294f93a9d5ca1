// Package indra reproduces INDRA — "An Integrated Framework for
// Dependable and Revivable Architectures Using Multicore Processors"
// (Shi, Lee, Falk, Ghosh; ISCA 2006) — as a simulation library.
//
// INDRA turns a multicore into an asymmetric security architecture: a
// privileged *resurrector* core, insulated from the network by a
// hardware memory watchdog, monitors the *resurrectee* cores that run
// network services. Monitoring is software consuming a hardware trace
// FIFO (call/return, code origin, control transfer inspections);
// recovery is a delta-page checkpoint engine that backs up only dirty
// cache lines and rolls a compromised service back by exactly one
// network request, on demand, without copying pages.
//
// The package wires the full simulated system (SRV32 cores, caches,
// TLBs, DRAM, OS-lite, network) and exposes one-call service runs:
//
//	run, err := indra.RunService("httpd", indra.Options{Requests: 8})
//	fmt.Println(run.Summary.MeanRT)
//
// Experiment reproduction for every table and figure in the paper's
// evaluation lives in experiments.go (see DESIGN.md for the index).
package indra

import (
	"fmt"
	"strings"

	"indra/internal/asm"
	"indra/internal/attack"
	"indra/internal/chip"
	"indra/internal/monitor"
	"indra/internal/netsim"
	"indra/internal/obs"
	"indra/internal/oslite"
	"indra/internal/recovery"
	"indra/internal/workload"
)

// Options configures a service run. The zero value selects the paper's
// default platform (Table 4, 32-entry FIFO and CAM, delta checkpoint,
// monitoring on) with 8 legitimate requests at 1/10 workload scale.
type Options struct {
	// Chip overrides the platform configuration; nil uses defaults. Its
	// Obs sink and MetricsEvery cadence observe the run (a nil Obs keeps
	// observation off and output byte-identical).
	Chip *chip.Config
	// Requests is the number of legitimate requests (default 8).
	Requests int
	// Seed makes the request stream deterministic (default 1).
	Seed uint32
	// Scale multiplies request length (1.0 = the calibrated 1/10-paper
	// scale; 10 = the paper's full instruction intervals).
	Scale float64
	// Attacks are injected after the AttackAfter-th legitimate request.
	Attacks []attack.Kind
	// AttackAfter defaults to half the legitimate requests.
	AttackAfter int
	// MaxInstructions caps the run (0 = a generous default).
	MaxInstructions uint64
	// ObsSuite, when non-nil, registers this run as one experiment cell:
	// a fresh collector is created under a configuration-derived key.
	// Takes precedence over Chip.Obs.
	ObsSuite *obs.Suite
	// RunLoop, when non-nil, replaces the single chip.Run call that
	// drives the booted chip to completion. It may return a different
	// chip than it was given (one restored from a snapshot); the run's
	// summary is then read from that chip's port. Observability sinks
	// are not carried across a snapshot restore, so runs that attach
	// Chip.Obs/ObsSuite should not also segment through snapshots.
	RunLoop RunLoopFunc
}

// RunLoopFunc drives a booted chip until its services halt. It returns
// the chip that finished the run — the same one, or a replacement
// restored from a snapshot — plus the accumulated result: Instret
// summed across segments; Cycles, Violations and Halted from the final
// segment (they are absolute chip state, not per-call deltas).
type RunLoopFunc func(ch *chip.Chip, maxInstr uint64) (*chip.Chip, chip.RunResult, error)

func (o Options) withDefaults() Options {
	if o.Requests == 0 {
		o.Requests = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.AttackAfter == 0 {
		o.AttackAfter = o.Requests / 2
	}
	if o.MaxInstructions == 0 {
		o.MaxInstructions = 400_000_000
	}
	if o.Chip == nil {
		cfg := chip.DefaultConfig()
		o.Chip = &cfg
	}
	return o
}

// ServiceRun is the outcome of one simulated service run.
type ServiceRun struct {
	Name    string
	Params  workload.Params
	Program *asm.Program
	Chip    *chip.Chip
	Port    *netsim.Port
	Summary netsim.Summary
	Result  chip.RunResult
}

// RunService builds the named service (ftpd, httpd, bind, sendmail,
// imap, nfs), boots a chip, feeds it the request stream and runs to
// completion.
func RunService(name string, opts Options) (*ServiceRun, error) {
	opts = opts.withDefaults()

	// The chip config is copied before observation is attached: callers
	// (and the isolated-chip runner) share one *chip.Config across runs,
	// and each run needs its own per-cell sink.
	cfg := *opts.Chip
	if opts.ObsSuite != nil {
		cfg.Obs = opts.ObsSuite.Cell(obsCellKey(name, opts, cfg))
	}
	b, err := bootChip(cfg, []string{name}, opts.Scale)
	if err != nil {
		return nil, err
	}
	params, prog := b.params[0], b.ch.Process(0).Prog

	reqs := params.GenRequests(opts.Requests, opts.Seed)
	if len(opts.Attacks) > 0 {
		cut := opts.AttackAfter
		if cut > len(reqs) {
			cut = len(reqs)
		}
		stream := append([]netsim.Request{}, reqs[:cut]...)
		for _, kind := range opts.Attacks {
			seq, err := attack.Sequence(kind, prog)
			if err != nil {
				return nil, err
			}
			stream = append(stream, seq...)
		}
		stream = append(stream, reqs[cut:]...)
		reqs = stream
	}
	ch, res, err := b.run(opts.RunLoop, reqs, opts.MaxInstructions)
	if err != nil {
		return nil, fmt.Errorf("indra: %s run: %w", name, err)
	}
	port := ch.ActivePort(0)
	return &ServiceRun{
		Name:    name,
		Params:  params,
		Program: prog,
		Chip:    ch,
		Port:    port,
		Summary: port.Summarize(),
		Result:  res,
	}, nil
}

// serviceParams resolves a stock service's workload parameters at scale.
func serviceParams(name string, scale float64) (workload.Params, error) {
	params, err := workload.ByName(name)
	if err != nil {
		return workload.Params{}, err
	}
	if scale != 1.0 {
		params = params.Scale(scale)
	}
	return params, nil
}

// bootedChip is a booted chip: service i runs on resurrectee slot i,
// waits on an empty port, and generates its requests from params[i].
type bootedChip struct {
	ch     *chip.Chip
	params []workload.Params // scaled
}

// bootChip is INDRA's asymmetric boot (Section 3.1.2) for every service
// chip this package runs: chip.New brings up the resurrector and
// programs the watchdog, then names[i], resolved and scaled once, is
// launched on resurrectee slot i with an empty port. Callers enqueue
// their request streams on the chip's ports.
func bootChip(cfg chip.Config, names []string, scale float64) (*bootedChip, error) {
	ch, err := chip.New(cfg)
	if err != nil {
		return nil, err
	}
	b := &bootedChip{ch: ch}
	for i, name := range names {
		params, err := serviceParams(name, scale)
		if err != nil {
			return nil, err
		}
		prog, err := params.BuildProgram()
		if err != nil {
			return nil, err
		}
		if _, err := ch.LaunchService(i, name, prog, netsim.NewPort(nil)); err != nil {
			return nil, err
		}
		b.params = append(b.params, params)
	}
	return b, nil
}

// run enqueues stream on slot 0's port and drives the chip through loop
// for at most maxInstr instructions. It returns the chip that finished
// the run — loop may hand back one restored from a snapshot.
func (b *bootedChip) run(loop RunLoopFunc, stream []netsim.Request, maxInstr uint64) (*chip.Chip, chip.RunResult, error) {
	b.ch.ActivePort(0).Enqueue(stream...)
	return loop.drive(b.ch, maxInstr)
}

// drive runs ch through l, or through a single ch.Run when l is nil.
// Callers must read all post-run state — ports, processes, stats — from
// the returned chip, which may be a revived replacement for ch.
func (l RunLoopFunc) drive(ch *chip.Chip, maxInstr uint64) (*chip.Chip, chip.RunResult, error) {
	if l != nil {
		return l(ch, maxInstr)
	}
	res, err := ch.Run(maxInstr)
	return ch, res, err
}

// Violations returns the monitor detections of a run.
func (r *ServiceRun) Violations() []*monitor.Violation { return r.Chip.Violations() }

// Recovery returns the recovery manager statistics.
func (r *ServiceRun) Recovery() recovery.Stats { return r.Chip.Recovery().Stats() }

// Process returns the service process.
func (r *ServiceRun) Process() *oslite.Process { return r.Chip.Process(0) }

// DefaultChipConfig exposes the paper's platform configuration for
// callers that tweak one knob.
func DefaultChipConfig() chip.Config { return chip.DefaultConfig() }

// obsCellKey derives a deterministic experiment-cell key from the
// knobs that distinguish cells within and across experiments: the
// platform's, the request stream's and the attacks', in order. Cells
// that agree on every listed knob (and therefore on their whole
// simulation) may share a key; the suite disambiguates duplicates by
// content, so the rendered output stays canonical either way.
func obsCellKey(service string, o Options, cfg chip.Config) string {
	pol := "all"
	if p := cfg.MonitorPolicy; p != nil {
		pol = fmt.Sprintf("cr:%t,co:%t,ct:%t", p.CallReturn, p.CodeOrigin, p.ControlTransfer)
	}
	kinds := make([]string, len(o.Attacks))
	for i, k := range o.Attacks {
		kinds[i] = string(k)
	}
	return fmt.Sprintf(
		"%s/scheme=%s/mon=%t/policy=%s/fifo=%d/cam=%d/bpred=%d/line=%d/moncall=%d/eager=%t/reboot=%t/budget=%d/slots=%d/res=%d/req=%d/seed=%d/scale=%g/atk=%s/after=%d",
		service, cfg.Scheme, cfg.Monitoring, pol, cfg.FIFOEntries, cfg.CAMSize, cfg.BPredEntries,
		cfg.Checkpoint.LineBytes, cfg.MonitorCosts.Call, cfg.Recovery.EagerRollback, cfg.RebootRecovery,
		cfg.Recovery.InstrBudget, cfg.Resurrectees, cfg.Resurrectors,
		o.Requests, o.Seed, o.Scale, strings.Join(kinds, ","), o.AttackAfter)
}
