// Package chip assembles the INDRA multicore: the privileged
// resurrector (modelled as the monitor software plus its runtime
// system), one or more resurrectee cores running OS-lite and server
// applications, the watchdog-partitioned physical memory, the shared
// trace FIFOs, the checkpoint engines and the recovery manager. It
// implements the asymmetric boot sequence of Section 3.1.2 and the
// co-simulation that paces the monitor against the resurrectees
// (Section 3.2.5).
package chip

import (
	"fmt"

	"indra/internal/asm"
	"indra/internal/cache"
	"indra/internal/checkpoint"
	"indra/internal/checkpoint/baseline"
	"indra/internal/cpu"
	"indra/internal/device"
	"indra/internal/dram"
	"indra/internal/faultinject"
	"indra/internal/fifo"
	"indra/internal/mem"
	"indra/internal/monitor"
	"indra/internal/netsim"
	"indra/internal/obs"
	"indra/internal/oslite"
	"indra/internal/recovery"
	"indra/internal/trace"
	"indra/internal/watchdog"
)

// SchemeKind selects the memory backup scheme protecting services.
type SchemeKind int

const (
	// SchemeNone runs unprotected (the no-monitoring baseline for
	// overhead measurements; recovery is impossible).
	SchemeNone SchemeKind = iota
	// SchemeDelta is INDRA's delta-page engine.
	SchemeDelta
	// SchemeSoftwarePageCopy is the software full-page checkpointing baseline.
	SchemeSoftwarePageCopy
	// SchemeHWVirtualCopy is the hardware virtual checkpointing baseline.
	SchemeHWVirtualCopy
	// SchemeUpdateLog is the DIRA-style memory update log baseline.
	SchemeUpdateLog
)

func (k SchemeKind) String() string {
	switch k {
	case SchemeNone:
		return "none"
	case SchemeDelta:
		return "indra-delta"
	case SchemeSoftwarePageCopy:
		return "software-pagecopy"
	case SchemeHWVirtualCopy:
		return "hw-virtual-copy"
	case SchemeUpdateLog:
		return "update-log"
	}
	return "scheme?"
}

// Config assembles a chip.
type Config struct {
	// Resurrectees is the number of low-privilege cores (the paper's
	// evaluation uses a dual-core: one resurrector, one resurrectee).
	Resurrectees int
	// Resurrectors is the number of privileged monitor cores (default
	// 1; the paper notes more are possible — resurrectees are assigned
	// to resurrectors round-robin, each pair coupled by its own FIFO).
	Resurrectors int
	// PhysMemBytes sizes physical memory.
	PhysMemBytes uint32
	// ResurrectorMemBytes is the region reserved for the resurrector's
	// runtime system (hidden from resurrectees; the paper's RTS is under
	// 10 MB including the stripped-down OS).
	ResurrectorMemBytes uint32
	// FIFOEntries sizes each resurrectee's trace FIFO (Figure 12).
	FIFOEntries int
	// CAMSize sizes the code-origin filter (Figure 10).
	CAMSize int
	// BPredEntries sizes each core's bimodal branch predictor.
	BPredEntries int
	// Monitoring enables trace emission and inspection.
	Monitoring bool
	// MonitorCosts models the monitor software's per-record cost.
	MonitorCosts monitor.CostConfig
	// MonitorPolicy selects active inspections; nil means all enabled.
	MonitorPolicy *monitor.Policy
	// Hierarchy configures each core's caches (Table 4).
	Hierarchy cache.HierarchyConfig
	// Checkpoint configures backup page/line geometry.
	Checkpoint checkpoint.Config
	// Scheme selects the backup mechanism.
	Scheme SchemeKind
	// Recovery tunes the hybrid recovery policy.
	Recovery recovery.Config
	// RebootRecovery models the conventional alternative the paper
	// argues against (Section 2.2): on failure the service process is
	// restarted from its image. The restart costs RebootCycles of
	// downtime during which RebootDrops queued requests are lost.
	RebootRecovery bool

	// Faults arms the deterministic fault-injection layer with plans
	// targeting the protection machinery itself (nil = fault-free; see
	// internal/faultinject).
	Faults []faultinject.Plan
	// FIFOPolicy selects the trace-FIFO overflow behavior (default
	// FIFOStall, the paper's backpressure).
	FIFOPolicy FIFOPolicy
	// FIFODropLimit degrades a slot once more than this many records
	// have been dropped by the FIFODrop policy (0 = never degrade).
	FIFODropLimit uint64
	// HeartbeatInterval arms the monitor-liveness watchdog: a trace
	// record sitting unverified at the FIFO head for more than this many
	// cycles escalates to macro recovery (0 = disabled).
	HeartbeatInterval uint64
	// HeartbeatMissLimit degrades a slot once its heartbeat has missed
	// more than this many times (0 = never degrade).
	HeartbeatMissLimit uint64
	// Degradation selects the posture taken when protection is lost
	// (default DegradeFailClosed: security over availability).
	Degradation DegradationMode

	// Obs receives metrics and trace events (nil = the obs.Nop sink:
	// nil handles everywhere, no allocation, byte-identical output).
	Obs obs.Sink
	// MetricsEvery takes a registry snapshot every N executed
	// instructions during Run (0 = only the end-of-run snapshot).
	MetricsEvery uint64

	// ScalarDispatch makes every run-loop visit one Step on any chip.
	// Only single-resurrectee chips have another engine (the
	// block-threaded executor); multi-resurrectee chips Step either
	// way. Host-side execution strategy, not platform configuration:
	// it is excluded from snapshot identity (ConfigBytes), and either
	// setting produces byte-identical simulations — the differential
	// harness pins that.
	ScalarDispatch bool
}

// DefaultConfig mirrors the paper's evaluation platform: a dual-core
// with Table 4's memory system, a 32-entry FIFO, a 32-entry CAM,
// monitoring on, and the delta engine.
func DefaultConfig() Config {
	return Config{
		Resurrectees:        1,
		Resurrectors:        1,
		PhysMemBytes:        64 << 20,
		ResurrectorMemBytes: 16 << 20,
		FIFOEntries:         32,
		CAMSize:             32,
		BPredEntries:        2048,
		Monitoring:          true,
		MonitorCosts:        monitor.DefaultCosts(),
		Hierarchy:           cache.DefaultHierarchyConfig(),
		Checkpoint:          checkpoint.DefaultConfig(),
		Scheme:              SchemeDelta,
		Recovery:            recovery.DefaultConfig(),
	}
}

// BootReport records the asymmetric boot sequence (Section 3.1.2) for
// inspection by examples and tests.
type BootReport struct {
	Steps []string
}

func (b *BootReport) log(format string, args ...any) {
	b.Steps = append(b.Steps, fmt.Sprintf(format, args...))
}

// Chip is the assembled system.
type Chip struct {
	cfg      Config
	phys     *mem.Physical
	wd       *watchdog.Watchdog
	mon      *monitor.Monitor
	rec      *recovery.Manager
	kern     *oslite.Kernel
	registry *device.Registry
	disk     *device.Disk
	nic      *device.NIC
	boot     BootReport

	cores     []*cpu.Core
	queues    []*fifo.Queue
	slots     []slotState
	dram      *dram.Model
	monClks   []uint64             // one verification clock per resurrector core
	pending   []*monitor.Violation // per-core pending detection
	activeIdx int                  // resurrectee slot currently in a syscall

	violationLog []*monitor.Violation

	inj     *faultinject.Injector
	hb      []*watchdog.Heartbeat // one per resurrector; nil entries = disabled
	pstats  ProtectionStats
	protLog []string

	// Run-loop continuation state, promoted to fields (and serialized)
	// so that Run(a) followed by Run(b) is equivalent to Run(a+b) — the
	// property snapshot/resume depends on. lastDrain is each core's
	// cumulative Instret at its last periodic monitor catch-up;
	// ranInstret is the chip-lifetime executed-instruction count that
	// paces MetricsEvery snapshots.
	lastDrain  []uint64
	lastPoll   []uint64 // per-core Instret at the last device-poll boundary
	ranInstret uint64
	// budgetAt is each slot's copy of recovery.BudgetStop (noBudget
	// when none is armed): derived state, kept by refreshBudgetAt.
	budgetAt []uint64

	// Observability: the sink plus cached registry/tracer handles (nil
	// when disabled) and the chip's event-time metric handles.
	sink    obs.Sink
	reg     *obs.Registry
	tr      *obs.Tracer
	om      chipMetrics
	obsNext uint64 // next Instret threshold for a MetricsEvery snapshot
}

// slotState is the OS scheduling state of one resurrectee core: the
// processes time-multiplexed on it (request-grained round-robin), their
// saved contexts, and which one currently owns the core. The paper's
// per-application GTS registers (saved across context switches,
// footnote 5) and CR3-tagged trace records exist exactly for this.
type slotState struct {
	procs     []*oslite.Process
	ports     []*netsim.Port
	ctxs      []oslite.Context
	active    int
	switchReq bool

	// Self-protection state: policy-dropped record count, and whether
	// the slot has entered degraded mode (unmonitored = fail-open).
	drops       uint64
	degraded    bool
	unmonitored bool

	// reqStart is the active request's start cycle (tracer spans only).
	reqStart uint64
}

// activeProc returns the process owning the core (nil when empty).
func (s *slotState) activeProc() *oslite.Process {
	if len(s.procs) == 0 {
		return nil
	}
	return s.procs[s.active]
}

// activePort returns the active process's network port.
func (s *slotState) activePort() *netsim.Port {
	if len(s.ports) == 0 {
		return nil
	}
	return s.ports[s.active]
}

// nextRunnable returns the round-robin successor that still has work,
// or -1 when no *other* process is runnable (the active process is
// never its own successor: a halted core must not restart itself).
func (s *slotState) nextRunnable() int {
	for step := 1; step < len(s.procs); step++ {
		i := (s.active + step) % len(s.procs)
		if !s.procs[i].Halted {
			return i
		}
	}
	return -1
}

// ContextSwitchCycles models the OS scheduling cost of a request-grained
// process switch on a resurrectee core (save/restore, kernel bookkeeping;
// the TLB and CAM flushes are modelled microarchitecturally).
const ContextSwitchCycles = 600

// New builds and boots a chip.
func New(cfg Config) (*Chip, error) {
	if cfg.Resurrectees <= 0 {
		return nil, fmt.Errorf("chip: need at least one resurrectee")
	}
	if err := cfg.Hierarchy.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Checkpoint.Validate(); err != nil {
		return nil, err
	}
	if cfg.FIFOEntries <= 0 {
		return nil, fmt.Errorf("chip: FIFOEntries must be positive")
	}
	if cfg.Resurrectors <= 0 {
		cfg.Resurrectors = 1
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.Nop()
	}
	c := &Chip{
		cfg:       cfg,
		phys:      mem.NewPhysical(cfg.PhysMemBytes),
		mon:       monitor.New(cfg.MonitorCosts),
		cores:     make([]*cpu.Core, cfg.Resurrectees),
		queues:    make([]*fifo.Queue, cfg.Resurrectees),
		slots:     make([]slotState, cfg.Resurrectees),
		monClks:   make([]uint64, cfg.Resurrectors),
		pending:   make([]*monitor.Violation, cfg.Resurrectees),
		lastDrain: make([]uint64, cfg.Resurrectees),
		lastPoll:  make([]uint64, cfg.Resurrectees),
		budgetAt:  make([]uint64, cfg.Resurrectees),
		sink:      cfg.Obs,
		reg:       cfg.Obs.Registry(),
		tr:        cfg.Obs.Tracer(),
		obsNext:   cfg.MetricsEvery,
	}
	if cfg.MonitorPolicy != nil {
		c.mon.Policy = *cfg.MonitorPolicy
	}
	if len(cfg.Faults) > 0 {
		for _, p := range cfg.Faults {
			if err := p.Validate(); err != nil {
				return nil, err
			}
		}
		c.inj = faultinject.New(cfg.Faults...)
	}
	c.hb = make([]*watchdog.Heartbeat, cfg.Resurrectors)
	if cfg.HeartbeatInterval > 0 {
		for i := range c.hb {
			c.hb[i] = watchdog.NewHeartbeat(cfg.HeartbeatInterval)
		}
	}
	// The DRAM model is shared: all cores arbitrate for the same
	// memory bus and banks.
	c.dram = dram.New(cfg.Hierarchy.DRAMConfig)
	c.bootSequence()
	c.rec = recovery.NewManager(cfg.Recovery, c.mon, c.lineCost)
	for i := 0; i < cfg.Resurrectees; i++ {
		c.queues[i] = fifo.New(cfg.FIFOEntries)
		env := &coreEnv{chip: c, idx: i}
		c.cores[i] = cpu.New(cpu.Config{
			ID:           cfg.Resurrectors + i, // resurrectors occupy cores 0..R-1
			Phys:         c.phys,
			Watchdog:     c.wd,
			Hierarchy:    cache.NewHierarchy(cfg.Hierarchy, c.dram),
			ITLB:         newITLB(),
			DTLB:         newDTLB(),
			CAMSize:      cfg.CAMSize,
			BPredEntries: cfg.BPredEntries,
			Env:          env,
		})
	}
	c.instrument()
	return c, nil
}

// lineCost prices a backing-store transfer of n bytes via the shared
// DRAM model at a synthetic backup-region address. The source line is
// normally already on chip (it was just loaded for the store), so only
// the write to the backup page pays a memory access; the open-page
// policy means consecutive backups to one backup page mostly row-hit.
func (c *Chip) lineCost(n uint32) uint64 {
	const backupRegion = 0x0200_0000
	return c.dram.Access(backupRegion, n)
}

// pageCopyCost prices the page-granular baselines' transfers: unlike a
// delta backup (whose source line was just brought on-chip by the
// triggering store), a whole-page copy streams a cold source page from
// DRAM and writes the destination back, paying both directions.
func (c *Chip) pageCopyCost(n uint32) uint64 {
	const srcRegion = 0x0280_0000
	const dstRegion = 0x0300_0000
	return c.dram.Access(srcRegion, n) + c.dram.Access(dstRegion, n)
}

// bootSequence models Section 3.1.2: the resurrector is the bootstrap
// processor; it boots the runtime system from flash, programs the
// watchdog partitions, hides its own memory and the original BIOS,
// duplicates a BIOS for the resurrectees and releases them.
func (c *Chip) bootSequence() {
	b := &c.boot
	b.log("bootstrap resurrector (core 0) boots from flash BIOS; runtime system loaded (<10 MB)")

	resLo := uint32(0)
	resHi := c.cfg.ResurrectorMemBytes
	teeLo := resHi
	teeHi := c.cfg.PhysMemBytes

	nRes := c.cfg.Resurrectors
	if nRes <= 0 {
		nRes = 1
	}
	var resMask, teeMask uint64
	for i := 0; i < nRes; i++ {
		resMask |= 1 << uint(i)
	}
	for i := 0; i < c.cfg.Resurrectees; i++ {
		teeMask |= 1 << uint(nRes+i)
	}
	c.wd = watchdog.New(watchdog.Config{
		Privileged: resMask,
		Partitions: []watchdog.Partition{{Lo: teeLo, Hi: teeHi, Cores: teeMask}},
	})
	b.log("watchdog programmed: resurrector region [%#x,%#x) hidden; resurrectees confined to [%#x,%#x)",
		resLo, resHi, teeLo, teeHi)
	b.log("BIOS duplicated into resurrectee space; security parameters set")

	// The resurrectee kernel allocates frames only from its partition,
	// so even OS-level corruption cannot mint pointers into the
	// resurrector's space that pass the watchdog.
	c.kern = oslite.NewKernel(c.phys, teeLo, teeHi, netMux{c}, hooksMux{c})

	// Peripherals plug into the device registry; the resurrector owns
	// the registry and every MMIO access dispatches through the same
	// watchdog that guards CPU stores.
	c.registry = device.NewRegistry(c.wd)
	c.disk = device.NewDisk(c.phys, c.wd, c.lineCost)
	c.disk.SetFaults(c.inj, func() uint64 { return c.cores[c.activeIdx].Cycles() })
	c.kern.AttachDisk(c.disk)
	if err := c.registry.Register(c.disk); err != nil {
		panic(err) // boot-time wiring of fixed devices cannot collide
	}
	b.log("block device attached; DMA descriptors watchdog-checked per originating core")
	c.nic = device.NewNIC(c.phys, c.wd, c.inj)
	if err := c.registry.Register(c.nic); err != nil {
		panic(err)
	}
	c.kern.FS().Back(c.disk, FSBackingBaseSector)
	b.log("nic registered at MMIO [%#x,%#x); fs backed by disk sectors %d+",
		device.NICMMIOBase, device.NICMMIOBase+device.NICMMIOBytes, uint32(FSBackingBaseSector))
	c.registry.StartAll()
	b.log("resurrectee cores released; OS-lite booted on cores %d..%d (%d resurrector(s))",
		nRes, nRes+c.cfg.Resurrectees-1, nRes)
}

// FSBackingBaseSector is the first sector the backed fs allocates file
// extents from; sectors below it stay free for the applications' raw
// disk syscalls (which address low sector numbers).
const FSBackingBaseSector = 1 << 20

// DevicePollInterval is how often (in per-core instructions) the run
// loop gives pollable devices a turn while they have pending work.
const DevicePollInterval = 64

// DrainInterval is how often (in per-core instructions) the
// co-simulation lets the monitor catch up outside of FIFO pushes.
const DrainInterval = 64

// RebootCycles is the downtime a reboot recovery charges, and
// RebootDrops the queued requests lost during it (Config.RebootRecovery).
const (
	RebootCycles = 5_000_000
	RebootDrops  = 2
)

// Boot returns the boot report.
func (c *Chip) Boot() *BootReport { return &c.boot }

// Kernel exposes the resurrectee OS.
func (c *Chip) Kernel() *oslite.Kernel { return c.kern }

// Monitor exposes the resurrector's inspection engine.
func (c *Chip) Monitor() *monitor.Monitor { return c.mon }

// Recovery exposes the recovery manager.
func (c *Chip) Recovery() *recovery.Manager { return c.rec }

// Watchdog exposes the memory watchdog.
func (c *Chip) Watchdog() *watchdog.Watchdog { return c.wd }

// SetScalarDispatch flips the execution strategy of an already-built
// chip of any shape (see Config.ScalarDispatch) — the differential
// harness restores a snapshot into a twin and forces it onto the
// per-instruction path. Only meaningful between Run calls; either
// setting produces byte-identical simulations.
func (c *Chip) SetScalarDispatch(v bool) { c.cfg.ScalarDispatch = v }

// Release does nothing: chip memory is sparse, and a dropped chip is
// reclaimed by the garbage collector like any other value.
//
// Deprecated: drop the chip instead. Release remains only because the
// perfbench module still calls it.
func (c *Chip) Release() {}

// Core returns resurrectee core i (0-based among resurrectees).
func (c *Chip) Core(i int) *cpu.Core { return c.cores[i] }

// CoreCount returns the number of resurrectee cores.
func (c *Chip) CoreCount() int { return len(c.cores) }

// MemVersionDigest hashes the physical memory's page-version array (a
// cheap content proxy) and MemDigest the full written image; both back
// the block-vs-scalar differential harness.
func (c *Chip) MemVersionDigest() uint64 { return c.phys.VersionDigest() }

// MemDigest hashes the full architectural memory image.
func (c *Chip) MemDigest() uint64 { return c.phys.Digest() }

// Queue returns resurrectee core i's trace FIFO.
func (c *Chip) Queue(i int) *fifo.Queue { return c.queues[i] }

// Violations returns all detections in order.
func (c *Chip) Violations() []*monitor.Violation { return c.violationLog }

// Process returns the process currently owning resurrectee core i.
func (c *Chip) Process(i int) *oslite.Process { return c.slots[i].activeProc() }

// Processes returns every process scheduled on resurrectee core i.
func (c *Chip) Processes(i int) []*oslite.Process {
	return append([]*oslite.Process(nil), c.slots[i].procs...)
}

// newScheme builds the configured backup scheme over a memory.
func (c *Chip) newScheme(m checkpoint.Memory) checkpoint.Scheme {
	switch c.cfg.Scheme {
	case SchemeDelta:
		e, err := checkpoint.NewEngine(c.cfg.Checkpoint, m, c.lineCost)
		if err != nil {
			panic(err)
		}
		return e
	case SchemeSoftwarePageCopy:
		return baseline.NewSoftwarePageCopy(c.cfg.Checkpoint, m, c.pageCopyCost)
	case SchemeHWVirtualCopy:
		return baseline.NewHardwareVirtualCopy(c.cfg.Checkpoint, m, c.pageCopyCost)
	case SchemeUpdateLog:
		return baseline.NewUpdateLog(c.cfg.Checkpoint, m, c.lineCost)
	}
	return nil
}

// LaunchService loads prog as a service on resurrectee core slot, wires
// it to port, and registers its code identity with the resurrector.
func (c *Chip) LaunchService(slot int, name string, prog *asm.Program, port *netsim.Port) (*oslite.Process, error) {
	if slot < 0 || slot >= len(c.cores) {
		return nil, fmt.Errorf("chip: no resurrectee slot %d", slot)
	}
	p, err := c.spawn(slot, name, prog)
	if err != nil {
		return nil, err
	}
	st := &c.slots[slot]
	st.procs = append(st.procs, p)
	st.ports = append(st.ports, port)
	st.ctxs = append(st.ctxs, c.kern.InitialContext(p))

	// On a backed fs the binary lands on disk sectors (the image
	// RespawnFromDisk reloads).
	if c.kern.FS().Backed() {
		c.kern.WriteFile("bin/"+name, prog.Text)
	}

	// The first process launched on a slot owns the core; further
	// launches join the slot's round-robin schedule and are installed
	// by the OS context switch.
	if len(st.procs) == 1 {
		c.install(slot, 0, false)
	}
	return p, nil
}

// spawn is the sequence every service process starts with — at launch,
// on reboot recovery and on a respawn from disk: spawn prog with the
// configured backup scheme, post its code identity to the resurrector
// (the OS process manager does so at load time, Section 3.2.2), and
// wire the fault injector and metrics into its checkpoint engine.
func (c *Chip) spawn(slot int, name string, prog *asm.Program) (*oslite.Process, error) {
	var newScheme func(checkpoint.Memory) checkpoint.Scheme
	if c.cfg.Scheme != SchemeNone {
		newScheme = c.newScheme
	}
	p, err := c.kern.Spawn(oslite.SpawnConfig{Name: name, Prog: prog, NewScheme: newScheme})
	if err != nil {
		return nil, err
	}
	c.registerApp(name, prog, p)
	c.armTamperer(slot, p.Ckpt)
	c.instrumentCkpt(slot, p)
	return p, nil
}

// install puts process i of slot on the slot's core at its saved
// context and wakes the core. flush also empties the core's caches,
// TLBs, CAM and predictor, for a fresh image replacing a process.
func (c *Chip) install(slot, i int, flush bool) {
	st := &c.slots[slot]
	p := st.procs[i]
	core := c.cores[slot]
	core.SetProcess(p.PID, p.AS)
	core.Restore(st.ctxs[i], flush)
	core.SetHalted(false)
}

// registerApp posts a service's code identity to the resurrector.
func (c *Chip) registerApp(name string, prog *asm.Program, p *oslite.Process) {
	info := &monitor.AppInfo{
		PID:       p.PID,
		Name:      name,
		CodePages: make(map[uint32]bool),
		Funcs:     make(map[uint32]bool),
		Exports:   make(map[uint32]bool),
	}
	for page := prog.TextBase &^ (oslite.PageBytes - 1); page < prog.TextEnd(); page += oslite.PageBytes {
		info.CodePages[page] = true
	}
	for addr := range prog.Funcs {
		info.Funcs[addr] = true
	}
	for addr := range prog.Exports {
		info.Exports[addr] = true
	}
	c.mon.RegisterApp(info)
}

// rebootSlot models conventional restart-on-failure recovery: the
// compromised process is discarded, a fresh image is spawned, the
// downtime is charged, and the requests that arrived during the outage
// are lost (Section 2.2: the recovery style INDRA replaces).
func (c *Chip) rebootSlot(idx int) error {
	st := &c.slots[idx]
	i := st.active
	old := st.procs[i]
	p, err := c.spawn(idx, old.Name, old.Prog)
	if err != nil {
		return err
	}
	st.procs[i] = p
	st.ctxs[i] = c.kern.InitialContext(p)
	c.install(idx, i, true)
	c.reap(old)

	core := c.cores[idx]
	core.AddCycles(RebootCycles)
	st.ports[i].DropNext(RebootDrops, core.Cycles())
	return nil
}

// switchProcess performs the request-grained context switch on slot
// idx: save the outgoing context, install the next runnable process
// (flushing TLBs and the CAM filter via SetProcess), and charge the
// scheduling cost. Returns false when no other process is runnable.
func (c *Chip) switchProcess(idx int) bool {
	st := &c.slots[idx]
	next := st.nextRunnable()
	if next < 0 {
		return false
	}
	core := c.cores[idx]
	st.ctxs[st.active] = core.Context()
	st.active = next
	c.install(idx, next, false)
	core.AddCycles(ContextSwitchCycles)
	st.switchReq = false
	c.refreshBudgetAt(idx)
	c.tr.Instant("context-switch", core.ID, core.Cycles())
	return true
}

// ---- co-simulation -------------------------------------------------

// coreEnv adapts one resurrectee core to the chip services.
type coreEnv struct {
	chip *Chip
	idx  int
}

func (e *coreEnv) Syscall(core *cpu.Core, num int) (uint64, error) {
	return e.chip.syscall(e.idx, core, num)
}

func (e *coreEnv) EmitTrace(rec trace.Record) uint64 {
	return e.chip.emitTrace(e.idx, rec)
}

func (e *coreEnv) PendingViolation() bool {
	return e.chip.pending[e.idx] != nil
}

func (e *coreEnv) PreLoad(va uint32) uint64 {
	if p := e.chip.slots[e.idx].activeProc(); p != nil && p.Ckpt != nil {
		return p.Ckpt.PreLoad(va)
	}
	return 0
}

func (e *coreEnv) PreStore(va uint32) uint64 {
	if p := e.chip.slots[e.idx].activeProc(); p != nil && p.Ckpt != nil {
		return p.Ckpt.PreStore(va)
	}
	return 0
}

// netMux routes kernel network calls to the port of the active core.
type netMux struct{ c *Chip }

func (n netMux) Recv(now uint64) (oslite.Request, bool) {
	port := n.c.slots[n.c.activeIdx].activePort()
	if port == nil {
		return oslite.Request{}, false
	}
	req, ok := port.Recv(now)
	if !ok {
		return oslite.Request{}, false
	}
	return oslite.Request{ID: req.ID, Payload: req.Payload}, true
}

func (n netMux) Send(id uint64, payload []byte, now uint64) {
	if port := n.c.slots[n.c.activeIdx].activePort(); port != nil {
		port.Send(id, payload, now)
	}
}

// hooksMux implements oslite.Hooks against the chip.
type hooksMux struct{ c *Chip }

func (h hooksMux) SyncPoint(p *oslite.Process) (uint64, error) {
	return h.c.syncPoint(h.c.activeIdx)
}

func (h hooksMux) RequestStart(p *oslite.Process, cpuIface oslite.CPU) {
	core := h.c.cores[h.c.activeIdx]
	if h.c.tr != nil {
		h.c.slots[h.c.activeIdx].reqStart = core.Cycles()
	}
	cycles := h.c.rec.OnRequestStart(p, core)
	core.AddCycles(cycles)
}

func (h hooksMux) RequestDone(p *oslite.Process, reqID uint64) {
	if h.c.tr != nil {
		core := h.c.cores[h.c.activeIdx]
		start := h.c.slots[h.c.activeIdx].reqStart
		h.c.tr.Complete(fmt.Sprintf("%s req %d", p.Name, reqID), core.ID, start, core.Cycles()-start)
	}
	h.c.rec.OnRequestDone(p)
	// Request-grained scheduling: with several processes on the slot,
	// a completed request yields the core to the next one.
	st := &h.c.slots[h.c.activeIdx]
	if len(st.procs) > 1 && st.nextRunnable() >= 0 {
		st.switchReq = true
	}
}

func (h hooksMux) Now() uint64 {
	return h.c.cores[h.c.activeIdx].Cycles()
}

func (h hooksMux) CoreID() int {
	return h.c.cores[h.c.activeIdx].ID
}

// Disk exposes the platform's block device.
func (c *Chip) Disk() *device.Disk { return c.disk }

// Devices exposes the device registry (MMIO dispatch, lifecycle,
// lookup by name).
func (c *Chip) Devices() *device.Registry { return c.registry }

// NIC exposes the platform's network interface.
func (c *Chip) NIC() *device.NIC { return c.nic }

// TranslateVA resolves a virtual address of the process active on
// resurrectee slot to its physical address (device-driver setup: DMA
// descriptors carry physical addresses).
func (c *Chip) TranslateVA(slot int, va uint32) (uint32, bool) {
	if slot < 0 || slot >= len(c.slots) {
		return 0, false
	}
	p := c.slots[slot].activeProc()
	if p == nil {
		return 0, false
	}
	pa, _, err := p.AS.Translate(va)
	if err != nil {
		return 0, false
	}
	return pa, true
}

// HostDMAWrite stores bytes into physical memory from the host side of
// the platform (driver setup: publishing DMA descriptor rings). The
// write goes through the same page write-version path as device DMA,
// so predecoded blocks over the touched pages are invalidated.
func (c *Chip) HostDMAWrite(pa uint32, b []byte) { c.phys.WriteBytes(pa, b) }

// RespawnFromDisk reloads the active service of a resurrectee slot from
// its on-disk binary (bin/<name>, written at launch on a backed fs):
// the daemon-restart path a disk-sector tamper attack targets. The
// fresh process runs whatever the sectors now hold; its text pages are
// re-registered as the service's code identity, so tampered *code*
// executes — and only a control transfer out of the code region (the
// tamper's payload) trips code-origin inspection.
func (c *Chip) RespawnFromDisk(slot int) error {
	if slot < 0 || slot >= len(c.cores) {
		return fmt.Errorf("chip: no resurrectee slot %d", slot)
	}
	st := &c.slots[slot]
	if len(st.procs) == 0 {
		return fmt.Errorf("chip: slot %d has no service", slot)
	}
	i := st.active
	old := st.procs[i]
	data, ok := c.kern.ReadFile("bin/" + old.Name)
	if !ok || len(data) == 0 {
		return fmt.Errorf("chip: no binary bin/%s on the fs (unbacked fs?)", old.Name)
	}
	prog := *old.Prog
	prog.Text = data
	p, err := c.spawn(slot, old.Name, &prog)
	if err != nil {
		return err
	}
	st.procs[i] = p
	st.ctxs[i] = c.kern.InitialContext(p)
	c.install(slot, i, true)
	c.reap(old)
	return nil
}

// reap retires a process that rebootSlot or RespawnFromDisk replaced,
// once its successor is installed: the kernel drops it and frees its
// frames, and the resurrector forgets its code identity, shadow stacks,
// setjmp targets and recovery state. Freeing only after the successor
// has spawned keeps the successor's own frames where a fresh boot puts
// them; a later image reuses the freed ones.
func (c *Chip) reap(old *oslite.Process) {
	c.kern.Reap(old)
	c.mon.Forget(old.PID)
	c.rec.Forget(old.PID)
}

// Introspect reads n bytes of a resurrectee process's virtual memory
// through the resurrector's privileges — the paper's "the resurrector
// ... can read and write the entire address space" (Section 3). Every
// physical access is watchdog-checked as the bootstrap resurrector
// (core 0), so the call documents, in code, that the privileged core
// really can see resurrectee state while the reverse is impossible.
func (c *Chip) Introspect(pid int, va uint32, n uint32) ([]byte, error) {
	p, ok := c.kern.Process(pid)
	if !ok {
		return nil, fmt.Errorf("chip: introspect of unknown pid %d", pid)
	}
	out := make([]byte, 0, n)
	for off := uint32(0); off < n; off++ {
		pa, _, err := p.AS.Translate(va + off)
		if err != nil {
			return nil, err
		}
		if err := c.wd.Check(0, pa, watchdog.Read); err != nil {
			return nil, err
		}
		out = append(out, c.phys.Read8(pa))
	}
	return out, nil
}
