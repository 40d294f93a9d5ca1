// Package recovery implements INDRA's hybrid dual recovery mechanism
// (Section 3.3 and Figure 8 of the paper): swift micro recovery rolls a
// compromised service back by exactly one network request using the
// delta checkpoint engine, the process context snapshot and the system
// resource allocation record; slow-paced macro (application-level)
// checkpoints every N requests back it up against "dormant" attacks
// that survive several requests before detonating.
package recovery

import (
	"fmt"

	"indra/internal/checkpoint"
	"indra/internal/cpu"
	"indra/internal/monitor"
	"indra/internal/oslite"
)

// Config tunes the hybrid recovery policy.
type Config struct {
	// MacroPeriod is the number of successfully processed requests
	// between application-level checkpoints (the paper suggests a slow
	// pace such as every 10,000 requests).
	MacroPeriod int
	// ConsecutiveFailLimit is the number of back-to-back micro
	// recoveries after which the manager falls back to the macro
	// checkpoint (Figure 8's "# of consecutive fails > threshold").
	ConsecutiveFailLimit int
	// InstrBudget bounds instructions per request; exceeding it is the
	// resurrector's liveness ("well-being") detection for DoS hangs.
	InstrBudget uint64
	// HandlerCycles models the recovery interrupt handler's fixed cost
	// on the resurrectee (stall, flush, context restore).
	HandlerCycles uint64
	// EagerRollback restores every backed-up line synchronously inside
	// the recovery handler instead of INDRA's deferred on-demand
	// restoration. Exists for the ablation study only.
	EagerRollback bool
	// RetryBackoffCycles charges an extra, exponentially growing delay
	// on each consecutive micro recovery (2^(fails-1) * RetryBackoffCycles,
	// capped by RetryBackoffCap), so a service stuck re-triggering the
	// same detection backs off instead of thrashing the recovery handler
	// at full speed until the macro fallback fires. Zero disables the
	// backoff (the paper's policy).
	RetryBackoffCycles uint64
	// RetryBackoffCap bounds one backoff delay. Zero with a nonzero
	// RetryBackoffCycles means uncapped growth up to the macro fallback.
	RetryBackoffCap uint64
}

// DefaultConfig returns the standard policy. The macro period matches
// the slow pace the paper suggests — an application-level checkpoint
// every 10,000 requests — so simulated runs lean on micro recovery and
// only reach the macro path via the consecutive-failure fallback;
// experiments that want frequent macro checkpoints override it.
func DefaultConfig() Config {
	return Config{
		MacroPeriod:          10000,
		ConsecutiveFailLimit: 3,
		InstrBudget:          50_000_000,
		HandlerCycles:        1200,
	}
}

// microCheckpoint is the per-request snapshot taken when a request is
// accepted: execution context, resource allocation status and the
// monitor's shadow stack.
type microCheckpoint struct {
	ctx       oslite.Context
	resources oslite.ResourceSnapshot
	shadow    []monitor.Frame
	instret   uint64
	valid     bool
}

// macroCheckpoint is a full application-level checkpoint: every
// writable page's contents plus context and resources.
type macroCheckpoint struct {
	pages     map[uint32][]byte // va base -> page image
	ctx       oslite.Context
	resources oslite.ResourceSnapshot
	shadow    []monitor.Frame
	valid     bool
}

type procState struct {
	micro            microCheckpoint
	macro            macroCheckpoint
	skipGTS          bool // previous request failed: reuse its GTS era
	consecutiveFails int
	sinceMacro       int
	reqStartInstret  uint64
}

// Stats aggregates recovery activity.
type Stats struct {
	MicroRecoveries uint64
	MacroRecoveries uint64
	MacroCkpts      uint64
	BudgetKills     uint64
	RecoveryCycles  uint64
}

// Manager owns the recovery policy for every process on the chip.
type Manager struct {
	cfg   Config
	mon   *monitor.Monitor
	cost  checkpoint.CostFunc
	procs map[int]*procState
	stats Stats
}

// NewManager creates a Manager. cost prices page copies for macro
// checkpoints (nil = free, functional mode).
func NewManager(cfg Config, mon *monitor.Monitor, cost checkpoint.CostFunc) *Manager {
	if cfg.MacroPeriod <= 0 {
		cfg.MacroPeriod = DefaultConfig().MacroPeriod
	}
	if cfg.ConsecutiveFailLimit <= 0 {
		cfg.ConsecutiveFailLimit = DefaultConfig().ConsecutiveFailLimit
	}
	if cfg.InstrBudget == 0 {
		cfg.InstrBudget = DefaultConfig().InstrBudget
	}
	if cost == nil {
		cost = func(uint32) uint64 { return 0 }
	}
	return &Manager{cfg: cfg, mon: mon, cost: cost, procs: make(map[int]*procState)}
}

// Config returns the active policy.
func (m *Manager) Config() Config { return m.cfg }

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// Forget drops pid's checkpoints and failure history once the process
// is gone.
func (m *Manager) Forget(pid int) { delete(m.procs, pid) }

func (m *Manager) state(pid int) *procState {
	st := m.procs[pid]
	if st == nil {
		st = &procState{}
		m.procs[pid] = st
	}
	return st
}

// OnRequestStart is the Figure 6/8 request entry: advance the GTS
// (unless the previous request failed and we are retrying in the same
// era), take the micro snapshot, and issue a macro checkpoint when the
// period has elapsed. Returns modelled cycles (macro checkpoint cost).
func (m *Manager) OnRequestStart(p *oslite.Process, core *cpu.Core) uint64 {
	st := m.state(p.PID)
	var cycles uint64
	if p.Ckpt != nil {
		if st.skipGTS {
			st.skipGTS = false
		} else {
			p.Ckpt.IncrementGTS()
		}
	}
	// Macro checkpoints are slow-paced (Figure 8): only every
	// MacroPeriod successful requests, never eagerly at start — until
	// the first macro checkpoint exists, escalation simply retries
	// micro recovery.
	if st.sinceMacro >= m.cfg.MacroPeriod {
		cycles += m.takeMacro(p, core, st)
		st.sinceMacro = 0
	}
	st.micro = microCheckpoint{
		ctx:       core.Context(),
		resources: p.SnapshotResources(),
		shadow:    m.mon.SnapshotShadow(core.ID, p.PID),
		instret:   core.Instret(),
		valid:     true,
	}
	st.reqStartInstret = core.Instret()
	return cycles
}

// OnRequestDone marks a successful completion.
func (m *Manager) OnRequestDone(p *oslite.Process) {
	st := m.state(p.PID)
	st.consecutiveFails = 0
	st.sinceMacro++
}

// OverBudget reports whether the in-flight request has exceeded the
// instruction budget (DoS liveness check).
func (m *Manager) OverBudget(p *oslite.Process, core *cpu.Core) bool {
	if p.CurrentReq == 0 {
		return false
	}
	st := m.state(p.PID)
	if !st.micro.valid {
		return false
	}
	over := core.Instret()-st.reqStartInstret > m.cfg.InstrBudget
	if over {
		m.stats.BudgetKills++
	}
	return over
}

// BudgetStop returns the core instret value at which the in-flight
// request crosses the instruction budget — the first count for which
// OverBudget reports true — and whether a budget is currently armed.
// The chip's run loop keeps a per-slot copy: it calls OverBudget only
// once instret reaches the stop, and bounds single-core block visits
// with it, so the liveness check fires at exactly the same instruction
// as per-step evaluation would.
func (m *Manager) BudgetStop(p *oslite.Process) (uint64, bool) {
	if p == nil || p.CurrentReq == 0 {
		return 0, false
	}
	st := m.state(p.PID)
	if !st.micro.valid {
		return 0, false
	}
	return st.reqStartInstret + m.cfg.InstrBudget + 1, true
}

// CanRecover reports whether a checkpoint exists to roll pid back to.
// A detection with no checkpoint (corruption before the first request)
// is unrecoverable: the caller halts the service instead.
func (m *Manager) CanRecover(p *oslite.Process) bool {
	st := m.state(p.PID)
	return st.micro.valid || st.macro.valid
}

// OnFailure performs recovery after a detection: micro rollback by one
// request, escalating to the macro checkpoint after too many
// consecutive failures. It restores the core context (flushing caches
// and TLBs), resource state and the monitor's shadow stack, and returns
// the modelled recovery cycles to charge the resurrectee.
func (m *Manager) OnFailure(p *oslite.Process, core *cpu.Core) uint64 {
	st := m.state(p.PID)
	st.consecutiveFails++
	cycles := m.cfg.HandlerCycles

	if st.consecutiveFails > m.cfg.ConsecutiveFailLimit && st.macro.valid {
		cycles += m.restoreMacro(p, core, st)
		m.stats.MacroRecoveries++
		m.stats.RecoveryCycles += cycles
		st.consecutiveFails = 0
		st.skipGTS = true
		return cycles
	}

	if !st.micro.valid {
		panic(fmt.Sprintf("recovery: failure for pid %d with no checkpoint (callers must check CanRecover)", p.PID))
	}
	cycles += m.backoff(st.consecutiveFails)
	if p.Ckpt != nil {
		cycles += p.Ckpt.Fail()
		if m.cfg.EagerRollback {
			if eng, ok := p.Ckpt.(*checkpoint.Engine); ok {
				_, c := eng.DrainRollbacks()
				cycles += c
			}
		}
	}
	core.Restore(st.micro.ctx, true)
	core.SetHalted(false)
	p.RestoreResources(st.micro.resources)
	m.mon.RestoreShadow(core.ID, p.PID, st.micro.shadow)
	p.CurrentReq = 0
	st.skipGTS = true
	m.stats.MicroRecoveries++
	m.stats.RecoveryCycles += cycles
	return cycles
}

// backoff prices the retry delay before the fails-th consecutive micro
// recovery: RetryBackoffCycles doubled per earlier failure, saturating
// at RetryBackoffCap when one is set.
func (m *Manager) backoff(fails int) uint64 {
	if m.cfg.RetryBackoffCycles == 0 || fails <= 1 {
		return 0
	}
	shift := uint(fails - 2)
	d := m.cfg.RetryBackoffCycles
	if shift >= 64 || d<<shift>>shift != d {
		d = ^uint64(0) // overflowed: saturate
	} else {
		d <<= shift
	}
	if m.cfg.RetryBackoffCap != 0 && d > m.cfg.RetryBackoffCap {
		d = m.cfg.RetryBackoffCap
	}
	return d
}

// ForceMacro is the watchdog-escalation entry: restore the macro
// checkpoint immediately, bypassing the consecutive-failure counter.
// The chip calls it when the resurrector's own heartbeat expires — the
// monitor may have missed detections while stalled, so a one-request
// micro rollback cannot be trusted. Reports false (and does nothing)
// when no macro checkpoint exists yet.
func (m *Manager) ForceMacro(p *oslite.Process, core *cpu.Core) (uint64, bool) {
	st := m.state(p.PID)
	if !st.macro.valid {
		return 0, false
	}
	cycles := m.cfg.HandlerCycles + m.restoreMacro(p, core, st)
	m.stats.MacroRecoveries++
	m.stats.RecoveryCycles += cycles
	st.consecutiveFails = 0
	st.skipGTS = true
	return cycles, true
}

// takeMacro copies every writable page (application-level checkpoint in
// the libckpt style the paper cites).
func (m *Manager) takeMacro(p *oslite.Process, core *cpu.Core, st *procState) uint64 {
	mc := macroCheckpoint{
		pages:     make(map[uint32][]byte),
		ctx:       core.Context(),
		resources: p.SnapshotResources(),
		shadow:    m.mon.SnapshotShadow(core.ID, p.PID),
		valid:     true,
	}
	var cycles uint64
	p.AS.EachPage(func(vaBase, frame uint32, perm oslite.Perm) {
		if perm&oslite.PermW == 0 {
			return
		}
		img := make([]byte, oslite.PageBytes)
		if err := p.AS.ReadBytes(vaBase, img); err != nil {
			panic(err) // mapped page must be readable: simulator invariant
		}
		mc.pages[vaBase] = img
		cycles += m.cost(oslite.PageBytes)
	})
	st.macro = mc
	m.stats.MacroCkpts++
	return cycles
}

// restoreMacro rewrites every checkpointed page and discards delta
// state (it predates the macro image's consistency point).
func (m *Manager) restoreMacro(p *oslite.Process, core *cpu.Core, st *procState) uint64 {
	var cycles uint64
	// Drop pending lazy rollbacks first: the page images are authoritative.
	if eng, ok := p.Ckpt.(*checkpoint.Engine); ok {
		eng.Discard()
	}
	for vaBase, img := range st.macro.pages {
		if !p.AS.Mapped(vaBase) {
			continue // page was unmapped by resource rollback since
		}
		if err := p.AS.WriteBytes(vaBase, img); err != nil {
			panic(err)
		}
		cycles += m.cost(oslite.PageBytes)
	}
	core.Restore(st.macro.ctx, true)
	core.SetHalted(false)
	p.RestoreResources(st.macro.resources)
	m.mon.RestoreShadow(core.ID, p.PID, st.macro.shadow)
	p.CurrentReq = 0
	return cycles
}
