package indra

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"indra/internal/attack"
	"indra/internal/checkpoint"
	"indra/internal/chip"
	"indra/internal/monitor"
	"indra/internal/netsim"
	"indra/internal/obs"
	"indra/internal/parallel"
	"indra/internal/workload"
)

// This file regenerates every table and figure of the paper's
// evaluation (Section 4). Each ExperimentX function runs the simulated
// platform and returns a result with a Format method that prints the
// same rows/series the paper reports. See DESIGN.md for the
// per-experiment index and EXPERIMENTS.md for paper-vs-measured.
//
// Every experiment decomposes into independent (service, config)
// simulation cells — each cell boots its own chip, builds its own
// program and request stream, and shares no state with any other cell.
// The cells are fanned out on a parallel.Pool worker pool and merged
// back in canonical input order, so the formatted output is
// byte-for-byte identical whatever the worker count (the golden tests
// in golden_test.go hold this invariant).

// ExpOptions tunes experiment runs; the zero value gives the standard
// configuration (8 requests per service, 1/10-paper workload scale,
// one simulation cell per available CPU).
type ExpOptions struct {
	Requests int
	Scale    float64
	Seed     uint32
	// Workers bounds how many simulation cells run concurrently;
	// 0 selects GOMAXPROCS, 1 forces a serial run. Output is identical
	// either way.
	Workers int
	// Meter, when non-nil, accumulates cell counts and wall/work time
	// across experiments (the CLIs use it for the throughput summary).
	Meter *parallel.Meter
	// Obs and RunLoop follow one rule. Cells that run through
	// RunService honour both: each registers one metrics cell with Obs
	// (keyed by cell configuration and rendered in canonical order, so
	// the output is identical whatever the worker count) and is driven
	// by RunLoop. Cells that build their own request stream, and the
	// fleet's nodes, honour RunLoop only: they are not registered with
	// Obs.
	Obs *obs.Suite
	// RunLoop, when non-nil, drives every chip in place of the single
	// chip.Run call (see Options.RunLoop).
	RunLoop RunLoopFunc
	// Warm is ignored: every chip cold-boots.
	//
	// Deprecated: leave it nil (see WarmBooter).
	Warm *WarmBooter
	// FleetPolicy restricts the fleet experiment to one recovery policy
	// ("" runs all of FleetPolicies). Other experiments ignore it.
	FleetPolicy string
	// FleetNodes is the fleet experiment's cluster size (0 selects 3).
	// Other experiments ignore it.
	FleetNodes int
}

func (o ExpOptions) fill() ExpOptions {
	if o.Requests == 0 {
		o.Requests = 8
	}
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o ExpOptions) runOpts(cfg chip.Config) Options {
	return Options{Chip: &cfg, Requests: o.Requests, Scale: o.Scale, Seed: o.Seed, ObsSuite: o.Obs, RunLoop: o.RunLoop}
}

// rollbackEveryOther follows each legitimate request with a late-crash
// DoS, so the service rolls back after every other request.
func rollbackEveryOther(legit []netsim.Request) []netsim.Request {
	stream := make([]netsim.Request, 0, 2*len(legit))
	for _, rq := range legit {
		stream = append(stream, rq, attack.NewDoSLateCrash())
	}
	return stream
}

// pool returns the worker pool experiments fan their cells out on.
func (o ExpOptions) pool() parallel.Pool {
	return parallel.Pool{Workers: o.Workers, Meter: o.Meter}
}

// forEachService fans one simulation cell per service out on the pool
// and returns the per-service results in the paper's figure order.
func forEachService[R any](o ExpOptions, fn func(name string) (R, error)) ([]R, error) {
	return parallel.Run(o.pool(), workload.Names(), func(_ int, name string) (R, error) {
		return fn(name)
	})
}

// ---------------------------------------------------------------- Fig 9

// Fig9Row is one service's L1 instruction cache miss rate.
type Fig9Row struct {
	Service  string
	MissPct  float64
	IL1Fills uint64
}

// Fig9Result reproduces Figure 9: IL1 miss rate per service.
type Fig9Result struct {
	Rows    []Fig9Row
	Average float64
}

// Fig9 measures the L1 instruction cache miss rates.
func Fig9(o ExpOptions) (*Fig9Result, error) {
	o = o.fill()
	rows, err := forEachService(o, func(name string) (Fig9Row, error) {
		run, err := RunService(name, o.runOpts(chip.DefaultConfig()))
		if err != nil {
			return Fig9Row{}, err
		}
		st := run.Chip.Core(0).Hierarchy().L1I().Stats()
		return Fig9Row{Service: name, MissPct: st.MissRate() * 100, IL1Fills: st.Fills}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{Rows: rows}
	for _, row := range rows {
		res.Average += row.MissPct
	}
	res.Average /= float64(len(res.Rows))
	return res, nil
}

// Format renders the figure as text.
func (r *Fig9Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: L1 instruction cache miss rate\n")
	fmt.Fprintf(&b, "%-10s %10s\n", "service", "miss rate %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10.2f\n", row.Service, row.MissPct)
	}
	fmt.Fprintf(&b, "%-10s %10.2f\n", "average", r.Average)
	return b.String()
}

// --------------------------------------------------------------- Fig 10

// Fig10Row is the share of code-origin checks that survive the CAM
// filter, per service and CAM size.
type Fig10Row struct {
	Service     string
	RemainPct32 float64
	RemainPct64 float64
}

// Fig10Result reproduces Figure 10: effectiveness of code-origin check
// filtering with 32- and 64-entry CAMs.
type Fig10Result struct {
	Rows      []Fig10Row
	Average32 float64
	Average64 float64
}

// Fig10 measures the CAM filter. Each (service, CAM size) pair is an
// independent cell.
func Fig10(o ExpOptions) (*Fig10Result, error) {
	o = o.fill()
	sizes := []int{32, 64}
	type cell struct {
		service string
		size    int
	}
	var cells []cell
	for _, name := range workload.Names() {
		for _, size := range sizes {
			cells = append(cells, cell{name, size})
		}
	}
	remains, err := parallel.Run(o.pool(), cells, func(_ int, c cell) (float64, error) {
		cfg := chip.DefaultConfig()
		cfg.CAMSize = c.size
		run, err := RunService(c.service, o.runOpts(cfg))
		if err != nil {
			return 0, err
		}
		cs := run.Chip.Core(0).Stats()
		if cs.IL1Fills == 0 {
			return 0, nil
		}
		return float64(cs.OriginChecks) / float64(cs.IL1Fills) * 100, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{}
	for i, name := range workload.Names() {
		r32, r64 := remains[i*len(sizes)], remains[i*len(sizes)+1]
		res.Rows = append(res.Rows, Fig10Row{Service: name, RemainPct32: r32, RemainPct64: r64})
		res.Average32 += r32
		res.Average64 += r64
	}
	res.Average32 /= float64(len(res.Rows))
	res.Average64 /= float64(len(res.Rows))
	return res, nil
}

// Format renders the figure as text.
func (r *Fig10Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: %% of code-origin checks remaining after CAM filtering\n")
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "service", "32-entry %", "64-entry %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %12.2f %12.2f\n", row.Service, row.RemainPct32, row.RemainPct64)
	}
	fmt.Fprintf(&b, "%-10s %12.2f %12.2f\n", "average", r.Average32, r.Average64)
	return b.String()
}

// --------------------------------------------------------------- Fig 11

// Fig11Row is one service's monitoring overhead.
type Fig11Row struct {
	Service     string
	OverheadPct float64
	BaseRT      float64
	MonRT       float64
}

// Fig11Result reproduces Figure 11: service response time overhead of
// monitoring (no backup in either configuration).
type Fig11Result struct {
	Rows    []Fig11Row
	Average float64
}

// Fig11 measures monitoring overhead. Each (service, monitored?) pair
// is an independent cell.
func Fig11(o ExpOptions) (*Fig11Result, error) {
	o = o.fill()
	type cell struct {
		service   string
		monitored bool
	}
	var cells []cell
	for _, name := range workload.Names() {
		cells = append(cells, cell{name, false}, cell{name, true})
	}
	rts, err := parallel.Run(o.pool(), cells, func(_ int, c cell) (float64, error) {
		cfg := chip.DefaultConfig()
		cfg.Monitoring = c.monitored
		cfg.Scheme = chip.SchemeNone
		run, err := RunService(c.service, o.runOpts(cfg))
		if err != nil {
			return 0, err
		}
		return run.Summary.MeanRT, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{}
	for i, name := range workload.Names() {
		baseRT, monRT := rts[i*2], rts[i*2+1]
		row := Fig11Row{Service: name, BaseRT: baseRT, MonRT: monRT}
		if baseRT > 0 {
			row.OverheadPct = (monRT/baseRT - 1) * 100
		}
		res.Rows = append(res.Rows, row)
		res.Average += row.OverheadPct
	}
	res.Average /= float64(len(res.Rows))
	return res, nil
}

// Format renders the figure as text.
func (r *Fig11Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: service response time overhead of monitoring\n")
	fmt.Fprintf(&b, "%-10s %11s\n", "service", "overhead %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %11.2f\n", row.Service, row.OverheadPct)
	}
	fmt.Fprintf(&b, "%-10s %11.2f\n", "average", r.Average)
	return b.String()
}

// --------------------------------------------------------------- Fig 12

// Fig12Point is one queue size's normalized response time.
type Fig12Point struct {
	QueueEntries int
	Normalized   float64 // vs the largest queue measured
}

// Fig12Result reproduces Figure 12: impact of the shared trace FIFO
// size, averaged over the six services.
type Fig12Result struct {
	Points []Fig12Point
}

// Fig12 sweeps the FIFO size. Each (service, FIFO size) pair is an
// independent cell; the 36-cell cross product is the suite's widest
// fan-out.
func Fig12(o ExpOptions) (*Fig12Result, error) {
	o = o.fill()
	sizes := []int{10, 16, 24, 32, 48, 64}
	type cell struct {
		service string
		size    int
	}
	var cells []cell
	for _, name := range workload.Names() {
		for _, size := range sizes {
			cells = append(cells, cell{name, size})
		}
	}
	rts, err := parallel.Run(o.pool(), cells, func(_ int, c cell) (float64, error) {
		cfg := chip.DefaultConfig()
		cfg.Scheme = chip.SchemeNone
		cfg.FIFOEntries = c.size
		run, err := RunService(c.service, o.runOpts(cfg))
		if err != nil {
			return 0, err
		}
		return run.Summary.MeanRT, nil
	})
	if err != nil {
		return nil, err
	}
	mean := make([]float64, len(sizes))
	for i := range cells {
		mean[i%len(sizes)] += rts[i]
	}
	base := mean[len(mean)-1]
	res := &Fig12Result{}
	for i, size := range sizes {
		res.Points = append(res.Points, Fig12Point{QueueEntries: size, Normalized: mean[i] / base})
	}
	return res, nil
}

// Format renders the figure as text.
func (r *Fig12Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: normalized response time vs monitor FIFO size\n")
	fmt.Fprintf(&b, "%8s %12s\n", "entries", "normalized")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %12.3f\n", p.QueueEntries, p.Normalized)
	}
	return b.String()
}

// --------------------------------------------------------------- Fig 13

// Fig13Row is one service's inter-request instruction interval.
type Fig13Row struct {
	Service      string
	InstrPerReq  float64
	PaperScaleEq float64 // extrapolated to the paper's full scale
}

// Fig13Result reproduces Figure 13: instructions between back-to-back
// requests.
type Fig13Result struct {
	Rows  []Fig13Row
	Scale float64
}

// Fig13 measures request intervals (no monitoring, no backup: the raw
// application behaviour).
func Fig13(o ExpOptions) (*Fig13Result, error) {
	o = o.fill()
	rows, err := forEachService(o, func(name string) (Fig13Row, error) {
		cfg := chip.DefaultConfig()
		cfg.Monitoring = false
		cfg.Scheme = chip.SchemeNone
		run, err := RunService(name, o.runOpts(cfg))
		if err != nil {
			return Fig13Row{}, err
		}
		per := float64(run.Chip.Core(0).Stats().Instret) / float64(run.Summary.Served)
		return Fig13Row{
			Service:      name,
			InstrPerReq:  per,
			PaperScaleEq: per * 10 / o.Scale,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig13Result{Rows: rows, Scale: o.Scale}, nil
}

// Format renders the figure as text.
func (r *Fig13Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: instructions between service requests (workload scale %.1f; right column extrapolated to paper scale)\n", r.Scale)
	fmt.Fprintf(&b, "%-10s %14s %16s\n", "service", "instr/request", "paper-scale eq")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %14.0f %16.0f\n", row.Service, row.InstrPerReq, row.PaperScaleEq)
	}
	return b.String()
}

// ---------------------------------------------------------- Fig 14 / 16

// SlowdownRow is one service's normalized response time under a
// checkpointing configuration.
type SlowdownRow struct {
	Service    string
	Normalized float64
}

// Fig14Result reproduces Figure 14: slowdown when dirty pages are
// backed up with conventional page-copy virtual checkpointing.
type Fig14Result struct {
	Rows    []SlowdownRow
	Average float64
}

// Fig14 measures the page-copy baseline slowdown (normalized to a
// system with no monitoring and no backup). Each (service, scheme)
// pair is an independent cell.
func Fig14(o ExpOptions) (*Fig14Result, error) {
	o = o.fill()
	schemes := []chip.SchemeKind{chip.SchemeNone, chip.SchemeSoftwarePageCopy}
	type cell struct {
		service string
		scheme  chip.SchemeKind
	}
	var cells []cell
	for _, name := range workload.Names() {
		for _, sk := range schemes {
			cells = append(cells, cell{name, sk})
		}
	}
	rts, err := parallel.Run(o.pool(), cells, func(_ int, c cell) (float64, error) {
		cfg := chip.DefaultConfig()
		cfg.Monitoring = false
		cfg.Scheme = c.scheme
		run, err := RunService(c.service, o.runOpts(cfg))
		if err != nil {
			return 0, err
		}
		return run.Summary.MeanRT, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{}
	for i, name := range workload.Names() {
		row := SlowdownRow{Service: name, Normalized: rts[i*2+1] / rts[i*2]}
		res.Rows = append(res.Rows, row)
		res.Average += row.Normalized
	}
	res.Average /= float64(len(res.Rows))
	return res, nil
}

// Format renders the figure as text.
func (r *Fig14Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14: slowdown with traditional page-copy virtual checkpointing\n")
	fmt.Fprintf(&b, "%-10s %12s\n", "service", "normalized")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %12.2f\n", row.Service, row.Normalized)
	}
	fmt.Fprintf(&b, "%-10s %12.2f\n", "average", r.Average)
	return b.String()
}

// --------------------------------------------------------------- Fig 15

// Fig15Row is one service's dirty-line density.
type Fig15Row struct {
	Service string
	// BackupPct is lines backed up as a percentage of all lines in the
	// pages that were modified (what whole-page schemes would copy).
	BackupPct float64
}

// Fig15Result reproduces Figure 15: percentage of cache lines that
// actually require backup among all lines of modified pages.
type Fig15Result struct {
	Rows    []Fig15Row
	Average float64
}

// Fig15 measures dirty-line density under the delta engine.
func Fig15(o ExpOptions) (*Fig15Result, error) {
	o = o.fill()
	rows, err := forEachService(o, func(name string) (Fig15Row, error) {
		run, err := RunService(name, o.runOpts(chip.DefaultConfig()))
		if err != nil {
			return Fig15Row{}, err
		}
		eng, ok := run.Process().Ckpt.(*checkpoint.Engine)
		if !ok {
			return Fig15Row{}, fmt.Errorf("fig15: %s not running the delta engine", name)
		}
		st := eng.Stats()
		row := Fig15Row{Service: name}
		if st.DirtyPageTouches > 0 {
			den := float64(st.DirtyPageTouches) * float64(eng.Config().LinesPerPage())
			row.BackupPct = float64(st.LineBackups) / den * 100
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig15Result{Rows: rows}
	for _, row := range rows {
		res.Average += row.BackupPct
	}
	res.Average /= float64(len(res.Rows))
	return res, nil
}

// Format renders the figure as text.
func (r *Fig15Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15: %% of lines in modified pages that need backup\n")
	fmt.Fprintf(&b, "%-10s %10s\n", "service", "backed %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10.1f\n", row.Service, row.BackupPct)
	}
	fmt.Fprintf(&b, "%-10s %10.1f\n", "average", r.Average)
	return b.String()
}

// --------------------------------------------------------------- Fig 16

// Fig16Row is one service's INDRA slowdown pair.
type Fig16Row struct {
	Service       string
	MonitorBackup float64 // monitoring + delta backup
	WithRollback  float64 // plus a rollback every other request
}

// Fig16Result reproduces Figure 16: INDRA's slowdown with monitoring
// and delta backup, and with rollback triggered every other request.
type Fig16Result struct {
	Rows []Fig16Row
}

// Fig16 measures INDRA's end-to-end overheads. Each service expands to
// three independent cells: the unprotected baseline, monitor+backup,
// and the rollback-every-other-request barrage.
func Fig16(o ExpOptions) (*Fig16Result, error) {
	o = o.fill()
	const (
		vBase = iota
		vMonitorBackup
		vRollback
		numVariants
	)
	type cell struct {
		service string
		variant int
	}
	var cells []cell
	for _, name := range workload.Names() {
		for v := 0; v < numVariants; v++ {
			cells = append(cells, cell{name, v})
		}
	}
	rts, err := parallel.Run(o.pool(), cells, func(_ int, c cell) (float64, error) {
		switch c.variant {
		case vBase:
			cfg := chip.DefaultConfig()
			cfg.Monitoring = false
			cfg.Scheme = chip.SchemeNone
			run, err := RunService(c.service, o.runOpts(cfg))
			if err != nil {
				return 0, err
			}
			return run.Summary.MeanRT, nil
		case vMonitorBackup:
			run, err := RunService(c.service, o.runOpts(chip.DefaultConfig()))
			if err != nil {
				return 0, err
			}
			return run.Summary.MeanRT, nil
		default:
			b, err := bootChip(chip.DefaultConfig(), []string{c.service}, o.Scale)
			if err != nil {
				return 0, err
			}
			ch, _, err := b.run(o.RunLoop, rollbackEveryOther(b.params[0].GenRequests(o.Requests, o.Seed)), 0)
			if err != nil {
				return 0, err
			}
			return ch.ActivePort(0).Summarize().MeanRT, nil
		}
	})
	if err != nil {
		return nil, err
	}
	res := &Fig16Result{}
	for i, name := range workload.Names() {
		base := rts[i*numVariants+vBase]
		res.Rows = append(res.Rows, Fig16Row{
			Service:       name,
			MonitorBackup: rts[i*numVariants+vMonitorBackup] / base,
			WithRollback:  rts[i*numVariants+vRollback] / base,
		})
	}
	return res, nil
}

// Format renders the figure as text.
func (r *Fig16Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 16: INDRA slowdown (normalized service response time)\n")
	fmt.Fprintf(&b, "%-10s %16s %20s\n", "service", "monitor+backup", "+rollback every 2nd")
	var s1, s2 float64
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %16.2f %20.2f\n", row.Service, row.MonitorBackup, row.WithRollback)
		s1 += row.MonitorBackup
		s2 += row.WithRollback
	}
	n := float64(len(r.Rows))
	fmt.Fprintf(&b, "%-10s %16.2f %20.2f\n", "average", s1/n, s2/n)
	return b.String()
}

// -------------------------------------------------------------- Table 2

// Table2Row records which inspection detected an attack class.
type Table2Row struct {
	Attack     attack.Kind
	Policy     string // "full" or the inspection that was switched off
	Detected   bool
	DetectedBy string // violation kind or fault path
	Recovered  bool
}

// Table2Result reproduces Table 2: remote exploit inspection coverage,
// exercised end to end with live exploits. Because monitoring is
// software, inspections can be disabled individually (Section 3.2); the
// inject-code attack is run twice to show that when the call/return
// check is off, code-origin inspection still catches it — the paper's
// Table 2 mapping.
type Table2Result struct {
	Rows []Table2Row
}

// table2Case describes one attack/policy cell of the matrix.
type table2Case struct {
	kind   attack.Kind
	policy *monitor.Policy
	label  string
}

// Table2 launches every attack class against a service and reports the
// detection path and recovery outcome.
func Table2(o ExpOptions) (*Table2Result, error) {
	o = o.fill()
	noCallRet := monitor.FullPolicy()
	noCallRet.CallReturn = false

	cases := []table2Case{
		{attack.StackSmash, nil, "full"},
		{attack.InjectCode, nil, "full"},
		{attack.InjectCode, &noCallRet, "call/return off"},
		{attack.FptrHijack, nil, "full"},
		{attack.DoSCrash, nil, "full"},
		{attack.DoSHang, nil, "full"},
	}

	rows, err := parallel.Run(o.pool(), cases, func(_ int, tc table2Case) (Table2Row, error) {
		cfg := chip.DefaultConfig()
		cfg.MonitorPolicy = tc.policy
		// DoS hang needs a liveness budget that trips within the run.
		cfg.Recovery.InstrBudget = 2_000_000
		const legit = 4
		opts := o.runOpts(cfg)
		opts.Requests = legit
		opts.Attacks = []attack.Kind{tc.kind}
		opts.AttackAfter = legit // exploits arrive after the legit stream
		run, err := RunService("httpd", opts)
		if err != nil {
			return Table2Row{}, err
		}
		row := Table2Row{Attack: tc.kind, Policy: tc.label}
		if vs := run.Violations(); len(vs) > 0 {
			row.Detected = true
			row.DetectedBy = vs[0].Kind.String()
		} else if rec := run.Recovery(); rec.MicroRecoveries+rec.MacroRecoveries > 0 {
			row.Detected = true
			if rec.BudgetKills > 0 {
				row.DetectedBy = "liveness (instruction budget)"
			} else {
				row.DetectedBy = "fault (crash path)"
			}
		}
		// The fptr hijack's first stage completes "successfully" (the
		// corrupting store is behaviourally silent), so count recovery
		// as all legitimate requests being served.
		row.Recovered = run.Summary.Served >= legit
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table2Result{Rows: rows}, nil
}

// Format renders the table as text.
func (r *Table2Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: remote exploit inspection (live attacks, end to end)\n")
	fmt.Fprintf(&b, "%-14s %-16s %-9s %-30s %-9s\n", "attack", "policy", "detected", "detected by", "recovered")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %-16s %-9v %-30s %-9v\n", row.Attack, row.Policy, row.Detected, row.DetectedBy, row.Recovered)
	}
	return b.String()
}

// -------------------------------------------------------------- Table 3

// Table3Row compares one backup scheme's costs.
type Table3Row struct {
	Scheme         string
	BackupCycles   uint64 // per served request
	RecoveryCycles uint64 // per rollback
	BackupOps      uint64
	RecoveryOps    uint64
	NormalizedRT   float64 // vs no backup, under rollback every other request
}

// Table3Result reproduces Table 3: comparison of macro memory backup
// approaches, measured instead of asserted.
type Table3Result struct {
	Service string
	Rows    []Table3Row
}

// Table3 runs the same service and attack pattern under each scheme.
// The no-backup baseline and the four schemes are five independent
// cells; each cell rebuilds its own program and request stream, so no
// payload bytes are shared between concurrently simulated chips.
func Table3(o ExpOptions) (*Table3Result, error) {
	o = o.fill()
	const service = "httpd"

	schemes := []chip.SchemeKind{
		chip.SchemeNone, // cell 0: the normalization baseline
		chip.SchemeSoftwarePageCopy,
		chip.SchemeUpdateLog,
		chip.SchemeHWVirtualCopy,
		chip.SchemeDelta,
	}
	type out struct {
		row    Table3Row
		meanRT float64
	}
	outs, err := parallel.Run(o.pool(), schemes, func(_ int, sk chip.SchemeKind) (out, error) {
		if sk == chip.SchemeNone {
			cfg := chip.DefaultConfig()
			cfg.Monitoring = false
			cfg.Scheme = chip.SchemeNone
			base, err := RunService(service, o.runOpts(cfg))
			if err != nil {
				return out{}, err
			}
			return out{meanRT: base.Summary.MeanRT}, nil
		}
		cfg := chip.DefaultConfig()
		cfg.Monitoring = false // isolate backup/recovery costs
		cfg.Scheme = sk
		b, err := bootChip(cfg, []string{service}, o.Scale)
		if err != nil {
			return out{}, err
		}
		ch, _, err := b.run(o.RunLoop, rollbackEveryOther(b.params[0].GenRequests(o.Requests, o.Seed)), 0)
		if err != nil {
			return out{}, err
		}
		sum := ch.ActivePort(0).Summarize()
		ov := ch.Process(0).Ckpt.Overhead()
		row := Table3Row{Scheme: sk.String()}
		if sum.Served > 0 {
			row.BackupCycles = ov.BackupCycles / uint64(sum.Served)
			row.BackupOps = ov.BackupOps / uint64(sum.Served)
		}
		if sum.Aborted > 0 {
			row.RecoveryCycles = ov.RecoveryCycles / uint64(sum.Aborted)
			row.RecoveryOps = ov.RecoveryOps / uint64(sum.Aborted)
		}
		return out{row: row, meanRT: sum.MeanRT}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Table3Result{Service: service}
	baseRT := outs[0].meanRT
	for _, c := range outs[1:] {
		c.row.NormalizedRT = c.meanRT / baseRT
		res.Rows = append(res.Rows, c.row)
	}
	return res, nil
}

// Format renders the table as text.
func (r *Table3Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: backup scheme comparison (%s, rollback every other request)\n", r.Service)
	fmt.Fprintf(&b, "%-20s %14s %12s %14s %12s %10s\n",
		"scheme", "backup cyc/req", "backup ops", "recover cyc", "recover ops", "norm RT")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s %14d %12d %14d %12d %10.2f\n",
			row.Scheme, row.BackupCycles, row.BackupOps, row.RecoveryCycles, row.RecoveryOps, row.NormalizedRT)
	}
	return b.String()
}

// -------------------------------------------------------------- Table 4

// Table4 returns the processor model parameters (the configuration the
// whole evaluation runs under), formatted like the paper's table.
func Table4() string {
	cfg := chip.DefaultConfig()
	h := cfg.Hierarchy
	d := h.DRAMConfig
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: processor model parameters\n")
	rows := [][2]string{
		{"L1 I-Cache", fmt.Sprintf("DM, %dKB, %dB line", h.L1I.SizeBytes>>10, h.L1I.LineBytes)},
		{"L1 D-Cache", fmt.Sprintf("DM, %dKB, %dB line", h.L1D.SizeBytes>>10, h.L1D.LineBytes)},
		{"L2 Cache", fmt.Sprintf("%dway, Unified, %dB line, WB, %dKB per core", h.L2.Assoc, h.L2.LineBytes, h.L2.SizeBytes>>10)},
		{"L1/L2 Latency", fmt.Sprintf("%d cycle / %d cycles", h.L1Latency, h.L2Latency)},
		{"I-TLB", "4-way, 128 entries"},
		{"D-TLB", "4-way, 256 entries"},
		{"Memory Bus", fmt.Sprintf("%d MHz equivalent, %dB wide", 1000/int(d.CoreClocksPerBus), d.BusBytes)},
		{"CAS latency", fmt.Sprintf("%d mem bus clocks", d.CASLatency)},
		{"Pre-charge latency (RP)", fmt.Sprintf("%d mem bus clocks", d.RPLatency)},
		{"RAS-to-CAS (RCD) latency", fmt.Sprintf("%d mem bus clocks", d.RCDLatency)},
		{"Branch predictor", fmt.Sprintf("bimodal, %d entries", cfg.BPredEntries)},
		{"Trace FIFO", fmt.Sprintf("%d entries", cfg.FIFOEntries)},
		{"Code-origin CAM", fmt.Sprintf("%d entries", cfg.CAMSize)},
		{"Checkpoint granularity", fmt.Sprintf("%dB lines in %dB pages", cfg.Checkpoint.LineBytes, cfg.Checkpoint.PageBytes)},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %s\n", r[0], r[1])
	}
	return b.String()
}

// ------------------------------------------------- experiment cells

// CellKey is the canonical name of one experiment cell: which
// experiment to run and the scalar options that pin its output. Two
// keys that format identically describe byte-identical runs (the
// worker count is deliberately absent — the parallel runner guarantees
// output is independent of it), which is what makes the key usable as
// a result-cache identity in the serving layer.
type CellKey struct {
	// Experiment is a registry id from Experiments() (e.g. "fig9").
	Experiment string
	// Requests is the number of legitimate requests per service.
	Requests int
	// Scale is the workload scale (1.0 = the calibrated 1/10 paper).
	Scale float64
	// Seed is the request-stream seed.
	Seed uint32
	// Policy pins the fleet experiment's recovery policy ("" = all;
	// only the fleet experiment reads it, but the axis is generic).
	Policy string
	// Nodes pins the fleet experiment's cluster size (0 = default).
	Nodes int
}

// String renders the canonical key, e.g. "fig9/req=3/scale=1/seed=1"
// or "fleet/req=3/scale=1/seed=1/policy=tmr/nodes=5" — the optional
// fleet axes appear only when set. The format is a fixed field order
// with %g floats (shortest exact representation), so String is a fixed
// point: ParseCellKey(k.String()) returns k, and
// k.String() == ParseCellKey(k.String()).String().
func (k CellKey) String() string {
	s := fmt.Sprintf("%s/req=%d/scale=%g/seed=%d", k.Experiment, k.Requests, k.Scale, k.Seed)
	if k.Policy != "" {
		s += "/policy=" + k.Policy
	}
	if k.Nodes != 0 {
		s += fmt.Sprintf("/nodes=%d", k.Nodes)
	}
	return s
}

// Options returns the experiment options the key pins. The caller
// supplies scheduling knobs (Workers, Meter, Obs) separately — they do
// not change the output and are not part of the key.
func (k CellKey) Options() ExpOptions {
	return ExpOptions{Requests: k.Requests, Scale: k.Scale, Seed: k.Seed, FleetPolicy: k.Policy, FleetNodes: k.Nodes}
}

// ParseCellKey parses a canonical cell key. The experiment id comes
// first; the option fields may appear in any order and any subset —
// omitted fields take the standard-suite defaults (8 requests, scale 1,
// seed 1) so "fig9" alone is a valid key. Unknown fields, non-positive
// requests or scale, and a zero seed are rejected. The experiment id is
// validated syntactically only (lowercase letters, digits, dashes);
// membership in the registry is checked at run time, so the parser
// round-trips keys for experiments that do not exist yet.
func ParseCellKey(s string) (CellKey, error) {
	parts := strings.Split(s, "/")
	name := parts[0]
	if name == "" {
		return CellKey{}, fmt.Errorf("cell key %q: empty experiment id", s)
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return CellKey{}, fmt.Errorf("cell key %q: experiment id may contain only [a-z0-9-]", s)
		}
	}
	k := CellKey{Experiment: name, Requests: 8, Scale: 1, Seed: 1}
	for _, field := range parts[1:] {
		fname, val, ok := strings.Cut(field, "=")
		if !ok {
			return CellKey{}, fmt.Errorf("cell key %q: field %q is not name=value", s, field)
		}
		switch fname {
		case "req":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return CellKey{}, fmt.Errorf("cell key %q: req must be a positive integer", s)
			}
			k.Requests = n
		case "scale":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f > 0) || f > 1e6 {
				return CellKey{}, fmt.Errorf("cell key %q: scale must be a positive number", s)
			}
			k.Scale = f
		case "seed":
			n, err := strconv.ParseUint(val, 10, 32)
			if err != nil || n == 0 {
				return CellKey{}, fmt.Errorf("cell key %q: seed must be a positive 32-bit integer", s)
			}
			k.Seed = uint32(n)
		case "policy":
			if val == "" {
				return CellKey{}, fmt.Errorf("cell key %q: policy must not be empty", s)
			}
			for _, r := range val {
				if (r < 'a' || r > 'z') && r != '-' {
					return CellKey{}, fmt.Errorf("cell key %q: policy may contain only [a-z-]", s)
				}
			}
			k.Policy = val
		case "nodes":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 || n > 64 {
				return CellKey{}, fmt.Errorf("cell key %q: nodes must be an integer in 1..64", s)
			}
			k.Nodes = n
		default:
			return CellKey{}, fmt.Errorf("cell key %q: unknown field %q", s, fname)
		}
	}
	return k, nil
}

// experiment pairs a registry id with its formatted runner.
type experiment struct {
	id  string
	run func(ExpOptions) (string, error)
}

// formatted adapts an Experiment function to the registry signature.
func formatted[R interface{ Format() string }](fn func(ExpOptions) (R, error)) func(ExpOptions) (string, error) {
	return func(o ExpOptions) (string, error) {
		r, err := fn(o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	}
}

// experimentList is the registry behind Experiments/RunExperiment, in
// the suite's canonical print order (what `indrabench -experiment all`
// emits).
func experimentList() []experiment {
	return []experiment{
		{"table2", formatted(Table2)},
		{"table3", formatted(Table3)},
		{"table4", func(ExpOptions) (string, error) { return Table4(), nil }},
		{"fig9", formatted(Fig9)},
		{"fig10", formatted(Fig10)},
		{"fig11", formatted(Fig11)},
		{"fig12", formatted(Fig12)},
		{"fig13", formatted(Fig13)},
		{"fig14", formatted(Fig14)},
		{"fig15", formatted(Fig15)},
		{"fig16", formatted(Fig16)},
		{"ablation-line", formatted(AblationLineSize)},
		{"ablation-cam", formatted(AblationCAM)},
		{"ablation-monitor", formatted(AblationMonitorSpeed)},
		{"ablation-rollback", formatted(AblationRollback)},
		{"ablation-space", formatted(AblationSpace)},
		{"ablation-resurrectors", formatted(AblationResurrectors)},
		{"availability", formatted(Availability)},
		{"latency", formatted(DetectionLatency)},
		{"ablation-bpred", formatted(AblationBPred)},
		{"faultsweep", formatted(FaultSweep)},
		{"fleet", formatted(Fleet)},
	}
}

// Experiments returns the ids of every registered experiment in the
// suite's canonical order.
func Experiments() []string {
	list := experimentList()
	ids := make([]string, len(list))
	for i, e := range list {
		ids[i] = e.id
	}
	return ids
}

// KnownExperiment reports whether id names a registered experiment.
func KnownExperiment(id string) bool {
	for _, e := range experimentList() {
		if e.id == id {
			return true
		}
	}
	return false
}

// RunExperiment runs the registered experiment id under o and returns
// its formatted output — exactly the text `indrabench -experiment id`
// prints for that experiment.
func RunExperiment(id string, o ExpOptions) (string, error) {
	for _, e := range experimentList() {
		if e.id == id {
			return e.run(o)
		}
	}
	return "", fmt.Errorf("unknown experiment %q", id)
}

// RunCell runs the experiment cell k names. o contributes only the
// scheduling knobs (Workers, Meter, Obs); the output-determining fields
// come from the key, so equal keys always produce equal bytes.
func RunCell(k CellKey, o ExpOptions) (string, error) {
	o.Requests, o.Scale, o.Seed = k.Requests, k.Scale, k.Seed
	o.FleetPolicy, o.FleetNodes = k.Policy, k.Nodes
	return RunExperiment(k.Experiment, o)
}

// MonitorRecordMix reports the monitor's record distribution for a
// service (diagnostics used by the docs and tests).
func MonitorRecordMix(run *ServiceRun) map[string]uint64 {
	out := make(map[string]uint64)
	for k, v := range run.Chip.Monitor().Stats().Records {
		out[k.String()] = v
	}
	return out
}

// SortedKinds returns the monitor record kinds sorted by name (stable
// output for docs and tests).
func SortedKinds(mix map[string]uint64) []string {
	keys := make([]string, 0, len(mix))
	for k := range mix {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
