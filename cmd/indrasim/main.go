// Command indrasim boots the INDRA platform, runs one of the six
// network services against a request stream (optionally laced with
// exploits), and reports what the resurrector saw and how the service
// fared.
//
// Examples:
//
//	indrasim -service httpd -requests 10
//	indrasim -service bind -requests 8 -attack stack-smash,dos-crash
//	indrasim -service nfs -scheme software-pagecopy -monitor=false
//	indrasim -service ftpd,httpd,bind -isolate -workers 3
//	indrasim -service httpd -inject fifo-corrupt:1e-3,monitor-stall:0.01:200000
//	indrasim -service bind -inject monitor-stall:1 -heartbeat 20000 -degrade fail-open
//	indrasim -service httpd -metrics -metrics-every 100000 -trace-out httpd.json
//	indrasim -service imap -snapshot-every 100000 -snapshot-out imap.snap
//	indrasim -snapshot-in imap.snap
//	indrasim -service httpd -attack stack-smash -rewind -snapshot-every 10000
//
// -metrics prints the run's metrics snapshots as JSON (-metrics-every N
// adds a mid-run snapshot every N instructions); -trace-out writes a
// Chrome trace-event file loadable in Perfetto or chrome://tracing.
// Observation never perturbs the simulation: output with and without
// these flags is byte-identical.
//
// Snapshots make long runs crash-resumable and violations replayable.
// -snapshot-out writes the chip's final state; with -snapshot-every N
// the file is instead rewritten (atomically) every N executed
// instructions, so a killed run loses at most N instructions — resume
// it with -snapshot-in, which restores the chip (request stream
// included) and runs it to completion. A restored run's output is
// byte-identical to the uninterrupted run (the resume-equivalence
// harness holds that property). A snapshot that fails to load — short
// file, corruption, format version skew — is a hard error: indrasim
// prints the decoder's diagnostic and exits non-zero. -rewind (with
// -snapshot-every N) keeps the last snapshot taken before the first
// monitor violation and replays from it after the run, reporting how
// far before the violation the clean state was; with -snapshot-out the
// pre-violation image is written there for -snapshot-in iteration.
//
// -inject arms protection-layer fault sites (site:rate[:stallCycles]
// [@from-to], comma-separated; sites: fifo-corrupt, fifo-drop,
// ckpt-bitvec, ckpt-line, monitor-stall, dram-read). -fifo-policy,
// -heartbeat and -degrade select the resurrector's self-protection
// posture; injected faults and protection events are reported after
// the run.
//
// A comma-separated -service list is time-multiplexed on one
// resurrectee core by default; with -isolate each service instead gets
// its own simulated chip and the chips run concurrently on -workers
// goroutines (default GOMAXPROCS), reported in launch order.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"indra"
	"indra/internal/attack"
	"indra/internal/checkpoint"
	"indra/internal/chip"
	"indra/internal/faultinject"
	"indra/internal/netsim"
	"indra/internal/obs"
	"indra/internal/parallel"
	"indra/internal/snapshot"
	"indra/internal/workload"
)

func main() {
	var (
		service  = flag.String("service", "httpd", "service (comma-separate several to time-multiplex them on one core): "+strings.Join(workload.Names(), ", "))
		requests = flag.Int("requests", 8, "legitimate requests")
		seed     = flag.Uint("seed", 1, "request stream seed")
		scale    = flag.Float64("scale", 1.0, "workload scale (1.0 = 1/10 paper)")
		attacks  = flag.String("attack", "", "comma-separated attack kinds: stack-smash, inject-code, fptr-hijack, dos-crash, dos-hang")
		scheme   = flag.String("scheme", "indra-delta", "backup scheme: indra-delta, software-pagecopy, hw-virtual-copy, update-log, none")
		monitor  = flag.Bool("monitor", true, "enable the resurrector's monitoring")
		fifoSz   = flag.Int("fifo", 32, "trace FIFO entries")
		camSz    = flag.Int("cam", 32, "code-origin CAM entries")
		budget   = flag.Uint64("budget", 2_000_000, "per-request instruction budget (DoS liveness)")
		verbose  = flag.Bool("v", false, "print boot sequence and per-request records")
		isolate  = flag.Bool("isolate", false, "give each -service its own chip instead of time-multiplexing one core")
		workers  = flag.Int("workers", 0, "concurrent chips with -isolate (0 = GOMAXPROCS)")

		metrics      = flag.Bool("metrics", false, "print the end-of-run metrics snapshot(s) as JSON")
		traceOut     = flag.String("trace-out", "", "write a Chrome trace-event JSON file (open in Perfetto / chrome://tracing)")
		metricsEvery = flag.Uint64("metrics-every", 0, "snapshot the metrics registry every N executed instructions (0 = end of run only)")

		snapOut   = flag.String("snapshot-out", "", "write a chip-state snapshot file (at end of run, or every -snapshot-every instructions)")
		snapIn    = flag.String("snapshot-in", "", "resume a run from a snapshot file instead of booting")
		snapEvery = flag.Uint64("snapshot-every", 0, "snapshot the chip every N executed instructions (crash-resumable; needs -snapshot-out or -rewind)")
		rewind    = flag.Bool("rewind", false, "after the run, replay from the last pre-violation snapshot (needs -snapshot-every)")

		inject     = flag.String("inject", "", "fault plans, site:rate[:stallCycles][@from-to] comma-separated (sites: fifo-corrupt, fifo-drop, ckpt-bitvec, ckpt-line, monitor-stall, dram-read)")
		injectSeed = flag.Uint64("inject-seed", 1, "base seed for -inject plans")
		fifoPolicy = flag.String("fifo-policy", "stall", "full-FIFO backpressure: stall (block the resurrectee) or drop (shed the record)")
		dropLimit  = flag.Uint64("fifo-drop-limit", 0, "dropped records per slot before degradation (0 = unlimited)")
		heartbeat  = flag.Uint64("heartbeat", 0, "monitor heartbeat interval in cycles (0 = disabled)")
		missLimit  = flag.Uint64("heartbeat-misses", 0, "heartbeat misses before degradation (0 = escalate but never degrade)")
		degrade    = flag.String("degrade", "fail-closed", "degradation mode: fail-closed (halt the service) or fail-open (serve unmonitored)")
		macroEvery = flag.Int("macro-period", 0, "macro checkpoint every N processed requests (0 = scheme default)")
	)
	flag.Parse()

	cfg := chip.DefaultConfig()
	cfg.Monitoring = *monitor
	cfg.FIFOEntries = *fifoSz
	cfg.CAMSize = *camSz
	cfg.Recovery.InstrBudget = *budget
	if *macroEvery > 0 {
		cfg.Recovery.MacroPeriod = *macroEvery
	}
	switch *scheme {
	case "indra-delta":
		cfg.Scheme = chip.SchemeDelta
	case "software-pagecopy":
		cfg.Scheme = chip.SchemeSoftwarePageCopy
	case "hw-virtual-copy":
		cfg.Scheme = chip.SchemeHWVirtualCopy
	case "update-log":
		cfg.Scheme = chip.SchemeUpdateLog
	case "none":
		cfg.Scheme = chip.SchemeNone
	default:
		fatalf("unknown scheme %q", *scheme)
	}

	plans, err := faultinject.ParsePlans(*inject, *injectSeed)
	if err != nil {
		fatalf("%v", err)
	}
	cfg.Faults = plans
	switch *fifoPolicy {
	case "stall":
		cfg.FIFOPolicy = chip.FIFOStall
	case "drop":
		cfg.FIFOPolicy = chip.FIFODrop
	default:
		fatalf("unknown -fifo-policy %q (stall or drop)", *fifoPolicy)
	}
	cfg.FIFODropLimit = *dropLimit
	cfg.HeartbeatInterval = *heartbeat
	cfg.HeartbeatMissLimit = *missLimit
	switch *degrade {
	case "fail-closed":
		cfg.Degradation = chip.DegradeFailClosed
	case "fail-open":
		cfg.Degradation = chip.DegradeFailOpen
	default:
		fatalf("unknown -degrade %q (fail-closed or fail-open)", *degrade)
	}

	var kinds []attack.Kind
	if *attacks != "" {
		for _, a := range strings.Split(*attacks, ",") {
			kinds = append(kinds, attack.Kind(strings.TrimSpace(a)))
		}
	}

	// Observability: one collector for the run (single-service or
	// multiplexed; with -isolate each chip would need its own sink —
	// use indrabench -metrics-dir for per-cell collection instead).
	var col *obs.Collector
	if *metrics || *traceOut != "" || *metricsEvery > 0 {
		if *isolate {
			fatalf("-metrics/-trace-out/-metrics-every are per-chip; not supported with -isolate (use indrabench -metrics-dir)")
		}
		col = obs.NewCollector()
		if *traceOut != "" {
			col.EnableTracing()
		}
		cfg.Obs = col
		cfg.MetricsEvery = *metricsEvery
	}

	services := strings.Split(*service, ",")
	if *snapOut != "" || *snapIn != "" || *snapEvery > 0 || *rewind {
		if len(services) > 1 || *isolate {
			fatalf("snapshot flags drive a single-service run (no -isolate, no service list)")
		}
		if *rewind && *snapEvery == 0 {
			fatalf("-rewind needs -snapshot-every N (the snapshot cadence bounds the replay window)")
		}
		if *snapIn != "" && col != nil {
			fatalf("-snapshot-in restores a chip without observability wiring; drop -metrics/-trace-out/-metrics-every")
		}
		if *snapEvery > 0 && *snapOut == "" && !*rewind {
			fatalf("-snapshot-every needs -snapshot-out (periodic file) or -rewind (in-memory replay)")
		}
	}
	var snap *snapshotter
	if *snapEvery > 0 {
		snap = &snapshotter{every: *snapEvery, out: *snapOut, rewind: *rewind}
	}

	if *snapIn != "" {
		resumeFromSnapshot(*snapIn, snap, *snapOut, *verbose)
		return
	}

	if len(services) > 1 {
		if *isolate {
			runIsolated(cfg, services, *requests, uint32(*seed), *scale, *workers, kinds)
		} else {
			runMultiplexed(cfg, services, *requests, uint32(*seed), *scale)
			writeObs(col, *metrics, *traceOut)
		}
		return
	}

	var loop indra.RunLoopFunc
	if snap != nil {
		loop = snap.loop
	}
	run, err := indra.RunService(*service, indra.Options{
		Chip:     &cfg,
		Requests: *requests,
		Seed:     uint32(*seed),
		Scale:    *scale,
		Attacks:  kinds,
		RunLoop:  loop,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if *snapOut != "" && snap == nil {
		writeSnapshotFile(*snapOut, snapshot.Save(run.Chip))
	}

	if *verbose {
		fmt.Println("boot sequence:")
		for _, s := range run.Chip.Boot().Steps {
			fmt.Println("  " + s)
		}
		fmt.Println()
	}

	report(run, *verbose)
	if snap != nil && snap.rewind {
		snap.replay(*snapOut)
	}
	writeObs(col, *metrics, *traceOut)
}

// report prints the standard post-run summary for a single-service run
// (boot sequence and observability output are the caller's business).
func report(run *indra.ServiceRun, verbose bool) {
	sum := run.Summary
	fmt.Printf("service %s: %d requests (%d served, %d aborted, %d undelivered)\n",
		run.Name, sum.Total, sum.Served, sum.Aborted, sum.Undelivered)
	fmt.Printf("executed %d instructions in %d cycles (CPI %.2f); mean response %.0f cycles\n",
		run.Result.Instret, run.Result.Cycles,
		float64(run.Result.Cycles)/float64(run.Result.Instret), sum.MeanRT)

	cs := run.Chip.Core(0).Stats()
	il1 := run.Chip.Core(0).Hierarchy().L1I().Stats()
	fmt.Printf("IL1 miss rate %.2f%%; %d origin checks after CAM filtering; FIFO stalls %d cyc; sync stalls %d cyc\n",
		il1.MissRate()*100, cs.OriginChecks, cs.TraceStall, cs.SyncStall)

	if p := run.Process(); p != nil && p.Ckpt != nil {
		if eng, ok := p.Ckpt.(*checkpoint.Engine); ok {
			st := eng.Stats()
			fmt.Printf("delta engine: %d line backups, %d lazy restores, %d pages tracked\n",
				st.LineBackups, st.LineRestores, eng.TrackedPages())
		} else {
			ov := p.Ckpt.Overhead()
			fmt.Printf("%s: backup %d cyc (%d ops), recovery %d cyc (%d ops)\n",
				p.Ckpt.Name(), ov.BackupCycles, ov.BackupOps, ov.RecoveryCycles, ov.RecoveryOps)
		}
	}

	if vs := run.Violations(); len(vs) > 0 {
		fmt.Printf("\nresurrector detections (%d):\n", len(vs))
		for _, v := range vs {
			fmt.Printf("  %s\n", v)
		}
	}
	rec := run.Recovery()
	if rec.MicroRecoveries+rec.MacroRecoveries > 0 {
		fmt.Printf("recoveries: %d micro, %d macro, %d liveness kills (%d cycles total)\n",
			rec.MicroRecoveries, rec.MacroRecoveries, rec.BudgetKills, rec.RecoveryCycles)
	}
	printProtection(run.Chip, verbose)

	if verbose {
		fmt.Println("\nper-request log:")
		for _, r := range run.Port.Records() {
			fmt.Printf("  #%-3d %-12s %-11s rt=%d\n", r.ID, r.Label, r.Outcome, r.ResponseTime())
		}
	}
}

// snapshotter segments a run at a fixed instruction cadence, saving
// the chip after each segment: to a file (crash-resume) and/or as the
// in-memory pre-violation image -rewind replays from.
type snapshotter struct {
	every  uint64
	out    string
	rewind bool

	preViol []byte // latest snapshot taken before any violation
}

// loop is the indra.RunLoopFunc driving a snapshotted run. The resume
// harness proves segmenting a run this way leaves output byte-identical
// to one uninterrupted chip.Run call.
func (s *snapshotter) loop(ch *chip.Chip, maxInstr uint64) (*chip.Chip, chip.RunResult, error) {
	res, err := ch.RunSegmented(0, maxInstr, s.every, func(uint64, bool) error {
		s.checkpoint(ch)
		return nil
	})
	return ch, res, err
}

func (s *snapshotter) checkpoint(ch *chip.Chip) {
	blob := snapshot.Save(ch)
	if s.rewind && len(ch.Violations()) == 0 {
		s.preViol = blob
	}
	if s.out != "" {
		writeSnapshotFile(s.out, blob)
	}
}

// replay restores the last pre-violation snapshot and re-executes until
// the monitor fires again, reporting the replay window; with
// -snapshot-out the pre-violation image is persisted for -snapshot-in
// iteration (finer -snapshot-every, -v, -metrics, a debugger...).
func (s *snapshotter) replay(out string) {
	if s.preViol == nil {
		fmt.Println("\nrewind: no pre-violation snapshot (first violation predates the first snapshot; lower -snapshot-every)")
		return
	}
	ch, err := snapshot.Load(s.preViol)
	if err != nil {
		fatalf("rewind: reload pre-violation snapshot: %v", err)
	}
	if len(ch.Violations()) != 0 {
		fatalf("rewind: pre-violation snapshot already holds violations")
	}
	var replayed uint64
	for {
		res, err := ch.Run(1_000)
		replayed += res.Instret
		if vs := ch.Violations(); len(vs) > 0 {
			fmt.Printf("\nrewind: violation reproduced %d instructions after the pre-violation snapshot:\n", replayed)
			for _, v := range vs {
				fmt.Printf("  %s\n", v)
			}
			break
		}
		if err == nil {
			fmt.Printf("\nrewind: replay halted after %d instructions without re-detecting (violation window exceeds one -snapshot-every period?)\n", replayed)
			break
		}
		if !errors.Is(err, chip.ErrInstrLimit) {
			fatalf("rewind replay: %v", err)
		}
	}
	if out != "" {
		writeSnapshotFile(out, s.preViol)
		fmt.Printf("rewind: pre-violation snapshot written to %s (resume it with -snapshot-in)\n", out)
	}
}

// resumeFromSnapshot restores a chip (request stream included) from a
// snapshot file and runs it to completion. An unreadable, corrupt or
// version-skewed snapshot is a hard error: the decoder's diagnostic is
// printed and indrasim exits non-zero.
func resumeFromSnapshot(path string, snap *snapshotter, snapOut string, verbose bool) {
	blob, err := os.ReadFile(path)
	if err != nil {
		fatalf("-snapshot-in: %v", err)
	}
	ch, err := snapshot.Load(blob)
	if err != nil {
		fatalf("-snapshot-in %s: %v", path, err)
	}
	port := ch.ActivePort(0)
	if port == nil {
		fatalf("-snapshot-in %s: snapshot holds no service on core 0", path)
	}
	name := ch.Process(0).Name
	fmt.Printf("resumed %s from %s (%d bytes)\n", name, path, len(blob))

	var res chip.RunResult
	if snap != nil {
		_, res, err = snap.loop(ch, 0)
	} else {
		res, err = ch.Run(0)
	}
	if err != nil {
		fatalf("%s resume run: %v", name, err)
	}
	if snapOut != "" && snap == nil {
		writeSnapshotFile(snapOut, snapshot.Save(ch))
	}
	report(&indra.ServiceRun{
		Name:    name,
		Chip:    ch,
		Port:    port,
		Summary: port.Summarize(),
		Result:  res,
	}, verbose)
	if snap != nil && snap.rewind {
		snap.replay(snapOut)
	}
}

// writeSnapshotFile writes atomically (tmp + rename) so a crash mid-
// write never leaves a torn snapshot where a resumable one stood.
func writeSnapshotFile(path string, blob []byte) {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		fatalf("write snapshot: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		fatalf("write snapshot: %v", err)
	}
}

// writeObs emits the collected metrics and trace after a run; no-op
// when observation was not armed.
func writeObs(col *obs.Collector, metrics bool, traceOut string) {
	if col == nil {
		return
	}
	if metrics {
		b, err := col.RenderJSON()
		if err != nil {
			fatalf("render metrics: %v", err)
		}
		fmt.Println(string(b))
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fatalf("%v", err)
		}
		if err := col.Tracer().WriteJSON(f); err != nil {
			fatalf("write trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("write trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events written to %s\n", col.Tracer().Len(), traceOut)
	}
}

// runIsolated boots one chip per service and runs them concurrently on
// the experiment runner's worker pool; results print in launch order
// whatever the completion order.
func runIsolated(cfg chip.Config, services []string, requests int, seed uint32, scale float64, workers int, kinds []attack.Kind) {
	meter := parallel.NewMeter()
	pool := parallel.Pool{Workers: workers, Meter: meter}
	runs, err := parallel.Run(pool, services, func(i int, name string) (*indra.ServiceRun, error) {
		return indra.RunService(strings.TrimSpace(name), indra.Options{
			Chip:     &cfg,
			Requests: requests,
			Seed:     seed + uint32(i),
			Scale:    scale,
			Attacks:  kinds,
		})
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("isolated: %d services, one chip each:\n", len(runs))
	for _, run := range runs {
		sum := run.Summary
		fmt.Printf("  %-10s served %d/%d, mean RT %.0f cycles (p95 %d), %d violations\n",
			run.Name, sum.Served, sum.Total, sum.MeanRT, run.Port.Percentile(0.95), len(run.Violations()))
	}
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "runner: %s, %d worker(s)\n", meter.Stats(), w)
}

// runMultiplexed time-shares several services on one resurrectee core
// (request-grained round-robin, per-process GTS, CR3-keyed monitoring).
func runMultiplexed(cfg chip.Config, services []string, requests int, seed uint32, scale float64) {
	ch, err := chip.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	type svc struct {
		name string
		port *netsim.Port
	}
	var launched []svc
	for i, name := range services {
		name = strings.TrimSpace(name)
		params, err := workload.ByName(name)
		if err != nil {
			fatalf("%v", err)
		}
		if scale != 1.0 {
			params = params.Scale(scale)
		}
		prog, err := params.BuildProgram()
		if err != nil {
			fatalf("%v", err)
		}
		port := netsim.NewPort(params.GenRequests(requests, seed+uint32(i)))
		if _, err := ch.LaunchService(0, name, prog, port); err != nil {
			fatalf("%v", err)
		}
		launched = append(launched, svc{name, port})
	}
	if _, err := ch.Run(0); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("multiplexed %d services on one resurrectee core:\n", len(launched))
	for _, s := range launched {
		sum := s.port.Summarize()
		fmt.Printf("  %-10s served %d/%d, mean RT %.0f cycles (p95 %d)\n",
			s.name, sum.Served, sum.Total, sum.MeanRT, s.port.Percentile(0.95))
	}
	fmt.Printf("violations: %d; recoveries: %+v\n", len(ch.Violations()), ch.Recovery().Stats())
	printProtection(ch, false)
}

// printProtection reports fault-injection hits and the self-protection
// layer's activity; silent when nothing was armed and nothing fired.
func printProtection(ch *chip.Chip, verbose bool) {
	fs := ch.FaultStats()
	if hits := fs.TotalHits(); hits > 0 {
		fmt.Printf("\ninjected faults (%d):\n", hits)
		for _, site := range faultinject.Sites() {
			if st := fs[site]; st.Hits > 0 {
				fmt.Printf("  %-13s %d of %d events\n", site, st.Hits, st.Events)
			}
		}
	}
	ps := ch.ProtectionStats()
	if ps != (chip.ProtectionStats{}) {
		fmt.Printf("self-protection: %d dropped records, %d heartbeat misses, %d macro escalations, %d micro fallbacks, %d degradations\n",
			ps.DroppedRecords, ps.HeartbeatMisses, ps.MacroEscalations, ps.MicroFallbacks, ps.Degradations)
	}
	if log := ch.ProtectionLog(); len(log) > 0 && verbose {
		fmt.Println("protection events:")
		for _, e := range log {
			fmt.Println("  " + e)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "indrasim: "+format+"\n", args...)
	os.Exit(1)
}
