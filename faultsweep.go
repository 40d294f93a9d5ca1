package indra

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"indra/internal/attack"
	"indra/internal/chip"
	"indra/internal/device"
	"indra/internal/faultinject"
	"indra/internal/netsim"
	"indra/internal/parallel"
	"indra/internal/workload"
)

// The FaultSweep experiment turns the fault injector on the protection
// layer itself: every fault site (trace-FIFO corruption and drops,
// checkpoint bitvector and backup-line flips, monitor stalls, DRAM read
// faults on rollback) is armed at a common per-event rate, and each
// service is driven through its legitimate request stream followed by
// the three code-attack classes. The sweep reports, per (service,
// rate): how many faults actually struck, how many detections fired
// (true and spurious), whether each attack class was still stopped, and
// the availability of the legitimate stream — the dependability-of-the-
// dependability-layer curve the paper's fault-free evaluation does not
// cover. Self-protection (monitor heartbeat plus Figure-8 escalation)
// is armed so the sweep also exercises the chip's own recovery from
// protection-layer faults.

// FaultSweepRates is the injection-rate axis. Rate 0 is the control
// column: plans are armed but never fire, and every metric must be
// bit-identical to an unarmed run (faultsweep_test.go holds this).
var FaultSweepRates = []float64{0, 1e-4, 1e-3, 1e-2}

// faultSweepHeartbeat is the monitor-liveness interval armed during the
// sweep; generous enough that only injected stalls (50k+ cycles) can
// trip it.
const faultSweepHeartbeat = 200_000

// FaultSweepRow is one (service, rate) cell's outcome.
type FaultSweepRow struct {
	Service        string
	Rate           float64
	InjectedFaults uint64 // fault-site hits that actually struck
	Detections     int    // monitor violations (true and spurious)
	AttacksStopped int    // of AttackClasses
	LegitServed    int
	LegitTotal     int
	Availability   float64
	Degraded       bool
	Truncated      bool // cell hit its instruction cap
}

// DeviceRow is one (scenario, rate) cell of the device-attack sweep:
// an attack staged through a peripheral (NIC DMA, the disk's stored
// binaries) rather than the request stream, run with every fault site
// — protection-layer and device — armed.
type DeviceRow struct {
	Scenario       string
	Rate           float64
	InjectedFaults uint64
	Detections     int    // monitor violations across the cell
	NICRejected    uint64 // NIC engine aborts (watchdog-refused DMA)
	Detected       bool   // the staged attack was caught
	Truncated      bool
}

// FaultSweepResult holds the sweep in service-major order, followed by
// the device-attack rows (absent under legacy device wiring, which has
// no NIC or disk-backed fs to attack).
type FaultSweepResult struct {
	Rows       []FaultSweepRow
	DeviceRows []DeviceRow
}

// AttackClasses lists the code-attack classes the sweep measures
// detection coverage over; FptrHijack implies its trigger stage.
var AttackClasses = []attack.Kind{attack.StackSmash, attack.InjectCode, attack.FptrHijack}

// protectionSites is the protection-layer fault-site list the sweep's
// service rows arm. It is pinned to the original six sites — the
// device sites (NIC frame drops, DMA corruption) belong to the
// device-scenario rows below, and folding them in here would perturb
// every committed row.
func protectionSites() []faultinject.Site {
	return []faultinject.Site{
		faultinject.SiteFIFOCorrupt,
		faultinject.SiteFIFODrop,
		faultinject.SiteCkptBitvec,
		faultinject.SiteCkptLine,
		faultinject.SiteMonitorStall,
		faultinject.SiteDRAMRead,
	}
}

// faultSweepPlans arms every protection-layer fault site at rate,
// seeded from the cell identity so each cell's fault pattern is fixed
// under any worker count.
func faultSweepPlans(rate float64, seedBase uint64) []faultinject.Plan {
	sites := protectionSites()
	plans := make([]faultinject.Plan, 0, len(sites))
	for i, site := range sites {
		plans = append(plans, faultinject.Plan{
			Site: site,
			Rate: rate,
			Seed: seedBase + uint64(i),
		})
	}
	return plans
}

// DeviceScenarios lists the device-attack sweep's scenarios: code
// injection over NIC DMA, a DMA descriptor aimed at resurrector
// memory, and tampering a daemon's stored binary on disk.
var DeviceScenarios = []string{attack.NICInjectLabel, "dma-overreach", attack.DiskTamperLabel}

// deviceSweepPlans arms every fault site — the six protection-layer
// sites plus the NIC/DMA sites — so the device rows measure detection
// with the device paths themselves faulty.
func deviceSweepPlans(rate float64, seedBase uint64) []faultinject.Plan {
	sites := faultinject.Sites()
	plans := make([]faultinject.Plan, 0, len(sites))
	for i, site := range sites {
		plans = append(plans, faultinject.Plan{
			Site: site,
			Rate: rate,
			Seed: seedBase + uint64(i),
		})
	}
	return plans
}

// deviceRingPA is the scratch physical address the sweep's "driver"
// places NIC descriptor rings at: the top page of the resurrectee
// partition, far above the bump allocator's reach for these small
// services.
const deviceRingPA = 0x03FF_F000

// deviceFrameCopies is how many duplicate shellcode frames the NIC
// injection queues, so SiteNICDrop at the highest sweep rate cannot
// plausibly defeat delivery.
const deviceFrameCopies = 3

// programNICRing writes count Ready descriptors (all aimed at bufPA,
// sized cap) at deviceRingPA and programs the NIC over MMIO as
// resurrector core 0, with DMA checked as the daemon's core.
func programNICRing(ch *chip.Chip, bufPA uint32, capacity, count int, dmaCore int) error {
	ring := make([]byte, count*device.NICDescBytes)
	for i := 0; i < count; i++ {
		d := ring[i*device.NICDescBytes:]
		binary.LittleEndian.PutUint32(d[0:], bufPA)
		binary.LittleEndian.PutUint16(d[4:], uint16(capacity))
		binary.LittleEndian.PutUint16(d[6:], device.NICDescReady)
	}
	ch.HostDMAWrite(deviceRingPA, ring)
	for _, w := range []struct {
		off uint32
		val uint32
	}{
		{device.NICRegRingBase, deviceRingPA},
		{device.NICRegRingLen, uint32(count)},
		{device.NICRegDMACore, uint32(dmaCore)},
		{device.NICRegCtrl, device.NICCtrlEnable},
	} {
		if err := ch.NIC().WriteMMIO(0, device.NICMMIOBase+w.off, w.val); err != nil {
			return fmt.Errorf("faultsweep: nic setup: %w", err)
		}
	}
	return nil
}

// runDeviceCell stages one device attack against httpd under the
// cell's fault plans and reports whether the protection caught it.
func runDeviceCell(o ExpOptions, scenario string, rate float64, seedBase uint64) (DeviceRow, error) {
	cfg := chip.DefaultConfig()
	cfg.Faults = deviceSweepPlans(rate, seedBase)
	cfg.HeartbeatInterval = faultSweepHeartbeat
	b, err := bootChip(cfg, []string{"httpd"}, o.Scale)
	if err != nil {
		return DeviceRow{}, err
	}
	ch, prog := b.ch, b.ch.Process(0).Prog
	ch.ActivePort(0).Enqueue(b.params[0].GenRequests(o.Requests, o.Seed)...)
	dmaCore := cfg.Resurrectors // slot 0's core

	row := DeviceRow{Scenario: scenario, Rate: rate}
	aborted := func(label string) bool {
		for _, rec := range ch.ActivePort(0).Records() {
			if rec.Label == label && rec.Outcome == netsim.Aborted {
				return true
			}
		}
		return false
	}
	drive := func(maxInstr uint64) error {
		next, res, err := o.RunLoop.drive(ch, maxInstr)
		ch = next
		row.Detections += res.Violations
		if errors.Is(err, chip.ErrInstrLimit) {
			row.Truncated = true
			return nil
		}
		return err
	}

	switch scenario {
	case attack.NICInjectLabel:
		ni, err := attack.NewNICInject(prog)
		if err != nil {
			return DeviceRow{}, err
		}
		bufPA, ok := ch.TranslateVA(0, ni.FrameVA)
		if !ok {
			return DeviceRow{}, fmt.Errorf("faultsweep: frame VA %#x unmapped", ni.FrameVA)
		}
		if err := programNICRing(ch, bufPA, len(ni.Frame), deviceFrameCopies, dmaCore); err != nil {
			return DeviceRow{}, err
		}
		for i := 0; i < deviceFrameCopies; i++ {
			ch.NIC().QueueFrame(ni.Frame)
		}
		ch.ActivePort(0).Enqueue(ni.Trigger)
		if err := drive(50_000_000); err != nil {
			return DeviceRow{}, err
		}
		row.Detected = aborted(attack.NICInjectLabel)

	case "dma-overreach":
		// Descriptor buffers aimed into resurrector memory: the
		// watchdog must refuse the DMA as the daemon's core.
		// Duplicates for the same reason as the injection frames.
		if err := programNICRing(ch, 0x0010_0000, 64, deviceFrameCopies, dmaCore); err != nil {
			return DeviceRow{}, err
		}
		for i := 0; i < deviceFrameCopies; i++ {
			ch.NIC().QueueFrame(make([]byte, 64))
		}
		if err := drive(50_000_000); err != nil {
			return DeviceRow{}, err
		}
		row.Detected = ch.NIC().Stats().Rejected > 0

	case attack.DiskTamperLabel:
		dt, err := attack.NewDiskTamper(prog)
		if err != nil {
			return DeviceRow{}, err
		}
		if err := drive(25_000_000); err != nil {
			return DeviceRow{}, err
		}
		bin, ok := ch.Kernel().FS().Lookup("bin/httpd")
		if !ok {
			return DeviceRow{}, fmt.Errorf("faultsweep: no bin/httpd on the fs")
		}
		sec := bin.Start + dt.TextOff/device.SectorBytes
		buf := ch.Disk().Peek(sec)
		binary.LittleEndian.PutUint32(buf[dt.TextOff%device.SectorBytes:], dt.NewWord)
		ch.Disk().HostWriteSector(sec, buf)
		if err := ch.RespawnFromDisk(0); err != nil {
			return DeviceRow{}, err
		}
		ch.ActivePort(0).Enqueue(dt.Trigger)
		if err := drive(25_000_000); err != nil {
			return DeviceRow{}, err
		}
		row.Detected = aborted(attack.DiskTamperLabel)

	default:
		return DeviceRow{}, fmt.Errorf("faultsweep: unknown device scenario %q", scenario)
	}

	row.InjectedFaults = ch.FaultStats().TotalHits()
	row.NICRejected = ch.NIC().Stats().Rejected
	return row, nil
}

// stoppedClasses counts attack classes with at least one aborted
// request (the hijack's corrupting first stage is behaviourally silent;
// stopping its trigger stops the class).
func stoppedClasses(records []*netsim.RequestRecord) int {
	classLabels := map[attack.Kind][]string{
		attack.StackSmash: {string(attack.StackSmash)},
		attack.InjectCode: {string(attack.InjectCode)},
		attack.FptrHijack: {string(attack.FptrHijack), string(attack.FptrTrigger)},
	}
	stopped := 0
	for _, class := range AttackClasses {
		for _, rec := range records {
			hit := false
			for _, label := range classLabels[class] {
				if rec.Label == label && rec.Outcome == netsim.Aborted {
					hit = true
					break
				}
			}
			if hit {
				stopped++
				break
			}
		}
	}
	return stopped
}

// FaultSweep runs the sweep. Each (service, rate) pair is an
// independent cell building its own chip, injector and request stream.
func FaultSweep(o ExpOptions) (*FaultSweepResult, error) {
	o = o.fill()
	type cell struct {
		service string
		svcIdx  int
		rateIdx int
	}
	var cells []cell
	for si, name := range workload.Names() {
		for ri := range FaultSweepRates {
			cells = append(cells, cell{name, si, ri})
		}
	}
	rows, err := parallel.Run(o.pool(), cells, func(_ int, c cell) (FaultSweepRow, error) {
		rate := FaultSweepRates[c.rateIdx]
		cfg := chip.DefaultConfig()
		seedBase := uint64(o.Seed)<<32 | uint64(c.svcIdx)<<16 | uint64(c.rateIdx)<<8
		cfg.Faults = faultSweepPlans(rate, seedBase)
		cfg.HeartbeatInterval = faultSweepHeartbeat
		b, err := bootChip(cfg, []string{c.service}, o.Scale)
		if err != nil {
			return FaultSweepRow{}, err
		}
		stream := b.params[0].GenRequests(o.Requests, o.Seed)
		for _, class := range AttackClasses {
			seq, err := attack.Sequence(class, b.ch.Process(0).Prog)
			if err != nil {
				return FaultSweepRow{}, err
			}
			stream = append(stream, seq...)
		}
		// Cells are capped so a pathological fault pattern (e.g. a lost
		// rollback bit leaving a service looping) still yields a row.
		ch, res, err := b.run(o.RunLoop, stream, 50_000_000)
		truncated := errors.Is(err, chip.ErrInstrLimit)
		if err != nil && !truncated {
			return FaultSweepRow{}, err
		}

		recs := ch.ActivePort(0).Records()
		row := FaultSweepRow{
			Service:        c.service,
			Rate:           rate,
			InjectedFaults: ch.FaultStats().TotalHits(),
			Detections:     res.Violations,
			AttacksStopped: stoppedClasses(recs),
			Degraded:       ch.Degraded(0),
			Truncated:      truncated,
		}
		for _, rec := range recs {
			if rec.Label != "legit" {
				continue
			}
			row.LegitTotal++
			if rec.Outcome == netsim.Served {
				row.LegitServed++
			}
		}
		if row.LegitTotal > 0 {
			row.Availability = float64(row.LegitServed) / float64(row.LegitTotal)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	result := &FaultSweepResult{Rows: rows}

	type dcell struct {
		scenario string
		scIdx    int
		rateIdx  int
	}
	var dcells []dcell
	for si, sc := range DeviceScenarios {
		for ri := range FaultSweepRates {
			dcells = append(dcells, dcell{sc, si, ri})
		}
	}
	drows, err := parallel.Run(o.pool(), dcells, func(_ int, c dcell) (DeviceRow, error) {
		// 0x80+scIdx keeps device seeds disjoint from the
		// service rows' svcIdx space.
		seedBase := uint64(o.Seed)<<32 | uint64(0x80+c.scIdx)<<16 | uint64(c.rateIdx)<<8
		return runDeviceCell(o, c.scenario, FaultSweepRates[c.rateIdx], seedBase)
	})
	if err != nil {
		return nil, err
	}
	result.DeviceRows = drows

	return result, nil
}

// Format renders the sweep as text.
func (r *FaultSweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FaultSweep: protection-layer fault injection (all %d sites armed per rate)\n", len(protectionSites()))
	fmt.Fprintf(&b, "%-10s %8s %8s %11s %9s %13s %7s %9s\n",
		"service", "rate", "faults", "detections", "stopped", "legit served", "avail%", "state")
	for _, row := range r.Rows {
		state := "ok"
		switch {
		case row.Degraded:
			state = "degraded"
		case row.Truncated:
			state = "truncated"
		}
		fmt.Fprintf(&b, "%-10s %8.0e %8d %11d %6d/%d %9d/%-3d %7.1f %9s\n",
			row.Service, row.Rate, row.InjectedFaults, row.Detections,
			row.AttacksStopped, len(AttackClasses),
			row.LegitServed, row.LegitTotal, row.Availability*100, state)
	}
	if len(r.DeviceRows) > 0 {
		fmt.Fprintf(&b, "\nDeviceSweep: device-path attacks on httpd (all %d sites armed per rate)\n", len(faultinject.Sites()))
		fmt.Fprintf(&b, "%-13s %8s %8s %11s %9s %10s\n",
			"scenario", "rate", "faults", "detections", "rejected", "outcome")
		for _, row := range r.DeviceRows {
			outcome := "missed"
			switch {
			case row.Detected:
				outcome = "detected"
			case row.Truncated:
				outcome = "truncated"
			}
			fmt.Fprintf(&b, "%-13s %8.0e %8d %11d %9d %10s\n",
				row.Scenario, row.Rate, row.InjectedFaults, row.Detections,
				row.NICRejected, outcome)
		}
	}
	return b.String()
}
