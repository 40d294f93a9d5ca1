package indra

import (
	"fmt"
	"strings"

	"indra/internal/attack"
	"indra/internal/checkpoint"
	"indra/internal/chip"
	"indra/internal/monitor"
	"indra/internal/netsim"
	"indra/internal/parallel"
	"indra/internal/trace"
	"indra/internal/workload"
)

// Ablation studies for the design choices DESIGN.md calls out. These
// go beyond the paper's figures: they sweep the parameters the paper
// fixed, showing *why* the published design points were chosen.
//
// Like the figure/table experiments, every sweep point is an
// independent simulation cell fanned out on the ExpOptions worker pool
// and merged in input order (see experiments.go).

// ---------------------------------------------------- backup line size

// AblationLineRow is one backup-granularity design point.
type AblationLineRow struct {
	LineBytes    uint32
	BackupCycles uint64  // per request
	BackupBytes  uint64  // per request
	Slowdown     float64 // vs no backup
}

// AblationLineResult sweeps the delta engine's backup granularity.
// The paper backs up 32 B lines inside 4 KB pages; coarser granules
// approach page-copy behaviour, the degenerate 4096 B point *is*
// hardware page copying.
type AblationLineResult struct {
	Service string
	Rows    []AblationLineRow
}

// AblationLineSize runs the sweep on one service. Cell 0 (LineBytes 0)
// is the no-backup baseline; the rest are the granularity points.
func AblationLineSize(o ExpOptions) (*AblationLineResult, error) {
	o = o.fill()
	const service = "httpd"

	type out struct {
		row    AblationLineRow
		meanRT float64
	}
	cells := []uint32{0, 32, 64, 128, 256, 1024, 4096}
	outs, err := parallel.Run(o.pool(), cells, func(_ int, lb uint32) (out, error) {
		cfg := chip.DefaultConfig()
		cfg.Monitoring = false
		if lb == 0 {
			cfg.Scheme = chip.SchemeNone
		} else {
			cfg.Checkpoint.LineBytes = lb
		}
		run, err := RunService(service, o.runOpts(cfg))
		if err != nil {
			return out{}, err
		}
		if lb == 0 {
			return out{meanRT: run.Summary.MeanRT}, nil
		}
		st := run.Process().Ckpt.(*checkpoint.Engine).Stats()
		return out{
			row: AblationLineRow{
				LineBytes:    lb,
				BackupCycles: st.BackupCycles / uint64(run.Summary.Served),
				BackupBytes:  st.LineBackups * uint64(lb) / uint64(run.Summary.Served),
			},
			meanRT: run.Summary.MeanRT,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblationLineResult{Service: service}
	baseRT := outs[0].meanRT
	for _, c := range outs[1:] {
		c.row.Slowdown = c.meanRT / baseRT
		res.Rows = append(res.Rows, c.row)
	}
	return res, nil
}

// Format renders the sweep.
func (r *AblationLineResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: delta backup granularity (%s; 4096B = page-copy degenerate point)\n", r.Service)
	fmt.Fprintf(&b, "%10s %16s %16s %10s\n", "line B", "backup cyc/req", "backup B/req", "slowdown")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %16d %16d %10.2f\n", row.LineBytes, row.BackupCycles, row.BackupBytes, row.Slowdown)
	}
	return b.String()
}

// ----------------------------------------------------------- CAM sweep

// AblationCAMRow is one filter size design point.
type AblationCAMRow struct {
	Entries     int
	RemainPct   float64 // origin checks surviving the filter
	MonitorLoad uint64  // resurrector cycles spent on origin checks
}

// AblationCAMResult extends Figure 10 to the full design space,
// including the no-filter point the paper argues against.
type AblationCAMResult struct {
	Service string
	Rows    []AblationCAMRow
}

// AblationCAM sweeps the code-origin filter size.
func AblationCAM(o ExpOptions) (*AblationCAMResult, error) {
	o = o.fill()
	const service = "bind" // highest IL1 miss rate: the stress case
	rows, err := parallel.Run(o.pool(), []int{0, 8, 16, 32, 64, 128}, func(_ int, size int) (AblationCAMRow, error) {
		cfg := chip.DefaultConfig()
		cfg.CAMSize = size
		run, err := RunService(service, o.runOpts(cfg))
		if err != nil {
			return AblationCAMRow{}, err
		}
		cs := run.Chip.Core(0).Stats()
		row := AblationCAMRow{Entries: size}
		if cs.IL1Fills > 0 {
			row.RemainPct = float64(cs.OriginChecks) / float64(cs.IL1Fills) * 100
		}
		row.MonitorLoad = run.Chip.Monitor().Stats().Records[trace.KindCodeOrigin] * cfg.MonitorCosts.Origin
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationCAMResult{Service: service, Rows: rows}, nil
}

// Format renders the sweep.
func (r *AblationCAMResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: code-origin CAM filter size (%s)\n", r.Service)
	fmt.Fprintf(&b, "%10s %12s %18s\n", "entries", "remain %", "monitor cyc spent")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %12.2f %18d\n", row.Entries, row.RemainPct, row.MonitorLoad)
	}
	return b.String()
}

// ----------------------------------------------------- monitor speed

// AblationMonitorRow is one monitor-speed design point.
type AblationMonitorRow struct {
	CostMultiplier float64
	OverheadPct    float64
}

// AblationMonitorResult sweeps the monitor software's speed: the paper
// notes tens-to-hundreds of resurrector instructions per verified
// event; this shows where the FIFO coupling saturates the resurrectee.
type AblationMonitorResult struct {
	Service string
	Rows    []AblationMonitorRow
}

// AblationMonitorSpeed runs the sweep. Cell 0 (multiplier 0) is the
// unmonitored baseline.
func AblationMonitorSpeed(o ExpOptions) (*AblationMonitorResult, error) {
	o = o.fill()
	const service = "imap"

	cells := []float64{0, 0.25, 0.5, 1, 2, 4}
	rts, err := parallel.Run(o.pool(), cells, func(_ int, mult float64) (float64, error) {
		cfg := chip.DefaultConfig()
		cfg.Scheme = chip.SchemeNone
		if mult == 0 {
			cfg.Monitoring = false
		} else {
			c := monitor.DefaultCosts()
			scale := func(v uint64) uint64 { return uint64(float64(v) * mult) }
			cfg.MonitorCosts = monitor.CostConfig{
				Call: scale(c.Call), Return: scale(c.Return),
				Origin: scale(c.Origin), Control: scale(c.Control), Setjmp: scale(c.Setjmp),
			}
		}
		run, err := RunService(service, o.runOpts(cfg))
		if err != nil {
			return 0, err
		}
		return run.Summary.MeanRT, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblationMonitorResult{Service: service}
	baseRT := rts[0]
	for i, mult := range cells[1:] {
		res.Rows = append(res.Rows, AblationMonitorRow{
			CostMultiplier: mult,
			OverheadPct:    (rts[i+1]/baseRT - 1) * 100,
		})
	}
	return res, nil
}

// Format renders the sweep.
func (r *AblationMonitorResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: monitor software speed (%s)\n", r.Service)
	fmt.Fprintf(&b, "%12s %12s\n", "cost mult", "overhead %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%12.2f %12.2f\n", row.CostMultiplier, row.OverheadPct)
	}
	return b.String()
}

// ------------------------------------------------- eager vs deferred

// AblationRollbackResult compares INDRA's deferred (on-demand) rollback
// against an eager restore-everything-now alternative, under rollback
// every other request. Per-request response times hide the difference
// (the eager cost is paid between requests), so the comparison is on
// total cycles to drain the stream and on restore work performed:
// deferred restores only the lines the subsequent execution actually
// touches, and overlaps them with useful work.
type AblationRollbackResult struct {
	Service        string
	DeferredCycles uint64
	EagerCycles    uint64
	DeferredOps    uint64 // line restores actually performed
	EagerOps       uint64
}

// AblationRollback runs both variants. Eager mode drains every pending
// line restoration synchronously inside the recovery handler (costed
// identically per line); deferred is INDRA's amortized design.
func AblationRollback(o ExpOptions) (*AblationRollbackResult, error) {
	o = o.fill()
	const service = "bind" // densest dirty lines: rollback stress case
	res := &AblationRollbackResult{Service: service}

	run := func(eager bool) (uint64, uint64, error) {
		params := workload.MustByName(service)
		if o.Scale != 1.0 {
			params = params.Scale(o.Scale)
		}
		prog, err := params.BuildProgram()
		if err != nil {
			return 0, 0, err
		}
		legit := params.GenRequests(o.Requests, o.Seed)
		var stream []netsim.Request
		for _, rq := range legit {
			stream = append(stream, rq, attack.NewDoSLateCrash())
		}
		cfg := chip.DefaultConfig()
		cfg.EagerRollback = eager
		ch, err := chip.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		port := netsim.NewPort(stream)
		if _, err := ch.LaunchService(0, service, prog, port); err != nil {
			return 0, 0, err
		}
		ch, result, err := o.drive(ch, 0)
		if err != nil {
			return 0, 0, err
		}
		eng := ch.Process(0).Ckpt.(*checkpoint.Engine)
		ops := eng.Stats().LineRestores
		return result.Cycles, ops, nil
	}

	type out struct{ cycles, ops uint64 }
	outs, err := parallel.Run(o.pool(), []bool{false, true}, func(_ int, eager bool) (out, error) {
		cycles, ops, err := run(eager)
		return out{cycles, ops}, err
	})
	if err != nil {
		return nil, err
	}
	res.DeferredCycles, res.DeferredOps = outs[0].cycles, outs[0].ops
	res.EagerCycles, res.EagerOps = outs[1].cycles, outs[1].ops
	return res, nil
}

// Format renders the comparison.
func (r *AblationRollbackResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: deferred (INDRA) vs eager rollback (%s, rollback every 2nd request)\n", r.Service)
	fmt.Fprintf(&b, "%12s %16s %16s %12s\n", "variant", "total cycles", "line restores", "normalized")
	fmt.Fprintf(&b, "%12s %16d %16d %12.2f\n", "deferred", r.DeferredCycles, r.DeferredOps, 1.0)
	fmt.Fprintf(&b, "%12s %16d %16d %12.2f\n", "eager", r.EagerCycles, r.EagerOps,
		float64(r.EagerCycles)/float64(r.DeferredCycles))
	return b.String()
}

// ------------------------------------------------- backup space cost

// AblationSpaceResult measures the physical memory overhead of the
// delta backup pages (Section 3.3.1, "Overhead of Backup Space").
type AblationSpaceResult struct {
	Rows []AblationSpaceRow
}

// AblationSpaceRow is one service's backup footprint.
type AblationSpaceRow struct {
	Service      string
	TrackedPages int
	MappedPages  int
	OverheadPct  float64
}

// AblationSpace measures backup page counts per service.
func AblationSpace(o ExpOptions) (*AblationSpaceResult, error) {
	o = o.fill()
	rows, err := forEachService(o, func(name string) (AblationSpaceRow, error) {
		run, err := RunService(name, o.runOpts(chip.DefaultConfig()))
		if err != nil {
			return AblationSpaceRow{}, err
		}
		eng := run.Process().Ckpt.(*checkpoint.Engine)
		tracked := eng.TrackedPages()
		mapped := run.Process().AS.Pages()
		return AblationSpaceRow{
			Service:      name,
			TrackedPages: tracked,
			MappedPages:  mapped,
			OverheadPct:  float64(tracked) / float64(mapped) * 100,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationSpaceResult{Rows: rows}, nil
}

// Format renders the table.
func (r *AblationSpaceResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: backup space overhead (Section 3.3.1 — pages with allocated backup)\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %12s\n", "service", "backup pages", "mapped pages", "overhead %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %14d %14d %12.1f\n", row.Service, row.TrackedPages, row.MappedPages, row.OverheadPct)
	}
	return b.String()
}

// ------------------------------------------------ resurrector scaling

// AblationResurrectorsResult compares one overloaded resurrector
// serving two resurrectees against two resurrectors (the paper's
// "having more resurrector cores is possible"), under a deliberately
// slow monitor.
type AblationResurrectorsResult struct {
	OneResCycles uint64
	TwoResCycles uint64
}

// AblationResurrectors runs two services on two resurrectee cores with
// 2x monitor costs, with one and with two resurrector cores.
func AblationResurrectors(o ExpOptions) (*AblationResurrectorsResult, error) {
	o = o.fill()
	run := func(resurrectors int) (uint64, error) {
		cfg := chip.DefaultConfig()
		cfg.Resurrectees = 2
		cfg.Resurrectors = resurrectors
		c := monitor.DefaultCosts()
		cfg.MonitorCosts = monitor.CostConfig{
			Call: c.Call * 2, Return: c.Return * 2,
			Origin: c.Origin * 2, Control: c.Control * 2, Setjmp: c.Setjmp * 2,
		}
		cfg.Scheme = chip.SchemeNone
		ch, err := chip.New(cfg)
		if err != nil {
			return 0, err
		}
		for slot, name := range []string{"imap", "httpd"} {
			params := workload.MustByName(name)
			if o.Scale != 1.0 {
				params = params.Scale(o.Scale)
			}
			prog, err := params.BuildProgram()
			if err != nil {
				return 0, err
			}
			port := netsim.NewPort(params.GenRequests(o.Requests, o.Seed+uint32(slot)))
			if _, err := ch.LaunchService(slot, name, prog, port); err != nil {
				return 0, err
			}
		}
		_, res, err := o.drive(ch, 0)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}
	cycles, err := parallel.Run(o.pool(), []int{1, 2}, func(_ int, resurrectors int) (uint64, error) {
		return run(resurrectors)
	})
	if err != nil {
		return nil, err
	}
	return &AblationResurrectorsResult{OneResCycles: cycles[0], TwoResCycles: cycles[1]}, nil
}

// Format renders the comparison.
func (r *AblationResurrectorsResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: resurrector scaling (2 resurrectees, 2x-cost monitor software)\n")
	fmt.Fprintf(&b, "%16s %16s %12s\n", "resurrectors", "total cycles", "normalized")
	fmt.Fprintf(&b, "%16d %16d %12.2f\n", 1, r.OneResCycles, float64(r.OneResCycles)/float64(r.TwoResCycles))
	fmt.Fprintf(&b, "%16d %16d %12.2f\n", 2, r.TwoResCycles, 1.0)
	return b.String()
}

// -------------------------------------------------- branch prediction

// AblationBPredRow is one predictor configuration's outcome.
type AblationBPredRow struct {
	Entries     int
	CPI         float64
	AccuracyPct float64
}

// AblationBPredResult compares the disabled predictor (fixed redirect
// bubble per taken branch) against bimodal tables of growing size.
type AblationBPredResult struct {
	Service string
	Rows    []AblationBPredRow
}

// AblationBPred sweeps the branch predictor size.
func AblationBPred(o ExpOptions) (*AblationBPredResult, error) {
	o = o.fill()
	const service = "httpd"
	rows, err := parallel.Run(o.pool(), []int{0, 64, 512, 2048, 8192}, func(_ int, entries int) (AblationBPredRow, error) {
		cfg := chip.DefaultConfig()
		cfg.Monitoring = false
		cfg.Scheme = chip.SchemeNone
		cfg.BPredEntries = entries
		run, err := RunService(service, o.runOpts(cfg))
		if err != nil {
			return AblationBPredRow{}, err
		}
		cs := run.Chip.Core(0).Stats()
		return AblationBPredRow{
			Entries:     entries,
			CPI:         float64(cs.Cycles) / float64(cs.Instret),
			AccuracyPct: run.Chip.Core(0).BPred().Accuracy() * 100,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationBPredResult{Service: service, Rows: rows}, nil
}

// Format renders the sweep.
func (r *AblationBPredResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: branch predictor size (%s; 0 = fixed taken-branch bubble)\n", r.Service)
	fmt.Fprintf(&b, "%10s %8s %12s\n", "entries", "CPI", "accuracy %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %8.2f %12.1f\n", row.Entries, row.CPI, row.AccuracyPct)
	}
	return b.String()
}
