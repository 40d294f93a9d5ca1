// Package monitor implements the resurrector's security monitoring
// software (Section 3.2 of the paper). It consumes trace records from
// the shared FIFO and performs the three behaviour-based inspections of
// Table 2:
//
//   - Function call/return inspection: a shadow call stack verifies that
//     every function returns to the instruction after its call site,
//     with setjmp/longjmp handled through registered targets (3.2.1).
//     This catches stack smashing.
//   - Code origin inspection: every IL1 fill that escapes the core's CAM
//     filter is checked against the application's recorded code pages
//     and declared dynamic-code regions (3.2.2). This catches injected
//     code.
//   - Control transfer inspection: computed jumps and indirect calls are
//     validated against the compiler-produced function entry and export
//     lists (3.2.3). This catches function/virtual pointer hijacks.
//
// The inspections are behaviour based, so the monitor "rarely has false
// positives" (3.2.4): a verdict of violation means an invariant that
// legitimate execution cannot break was broken.
//
// The monitor is software on the resurrector; its per-record costs (in
// resurrector cycles) are modelled via CostConfig and charged by the
// chip's co-simulation, not here.
package monitor

import (
	"fmt"

	"indra/internal/trace"
)

// Region is a half-open virtual address range of declared dynamic code.
type Region struct {
	Lo, Hi uint32
}

// AppInfo is what the resurrectee posts to the resurrector when a
// service program starts: code page set with execute privilege, the
// symbol table's function entries, and the export/import list.
type AppInfo struct {
	PID       int
	Name      string
	CodePages map[uint32]bool // page base VAs holding executable code
	Funcs     map[uint32]bool // legitimate call targets
	Exports   map[uint32]bool // legitimate computed/indirect targets
	DynCode   []Region        // declared dynamic/self-modifying code
}

// ViolationKind classifies detections.
type ViolationKind uint8

const (
	// ReturnMismatch: a function did not return to the instruction after
	// its call (stack smash signature).
	ReturnMismatch ViolationKind = iota
	// ShadowUnderflow: a return with no matching call.
	ShadowUnderflow
	// CodeOriginViolation: instructions fetched from a page that was
	// never loaded as code (injected code signature).
	CodeOriginViolation
	// BadControlTarget: a computed jump outside the valid target sets.
	BadControlTarget
	// BadCallTarget: an indirect call to a non-entry address
	// (function/virtual pointer overwrite signature).
	BadCallTarget
	// UnknownApp: trace from a process never registered (treated as a
	// violation: an unmonitored service must not run).
	UnknownApp
)

func (k ViolationKind) String() string {
	switch k {
	case ReturnMismatch:
		return "return-mismatch"
	case ShadowUnderflow:
		return "shadow-underflow"
	case CodeOriginViolation:
		return "code-origin"
	case BadControlTarget:
		return "bad-control-target"
	case BadCallTarget:
		return "bad-call-target"
	case UnknownApp:
		return "unknown-app"
	}
	return "violation"
}

// Violation is a positive detection.
type Violation struct {
	Kind     ViolationKind
	Rec      trace.Record
	Expected uint32 // for ReturnMismatch: the shadow return address
}

func (v *Violation) Error() string {
	return fmt.Sprintf("monitor: %s (%s, expected=%08x)", v.Kind, v.Rec, v.Expected)
}

// CostConfig models the monitor software's per-record verification cost
// in resurrector cycles. The paper notes tens to hundreds of monitor
// instructions per verified event; these defaults sit in that band.
type CostConfig struct {
	Call    uint64
	Return  uint64
	Origin  uint64
	Control uint64
	Setjmp  uint64
}

// DefaultCosts returns the standard monitor cost model: the monitor
// dequeues a record, pairs it with per-process state (keyed by the CR3
// analogue), runs the check and updates its structures — a few dozen
// instructions for shadow-stack operations, more for the table lookups
// of code-origin and control-transfer validation.
func DefaultCosts() CostConfig {
	return CostConfig{Call: 60, Return: 65, Origin: 110, Control: 130, Setjmp: 50}
}

// Cost returns the verification cost for a record kind.
func (c CostConfig) Cost(k trace.Kind) uint64 {
	switch k {
	case trace.KindCall:
		return c.Call
	case trace.KindReturn:
		return c.Return
	case trace.KindCodeOrigin:
		return c.Origin
	case trace.KindControl:
		return c.Control
	default:
		return c.Setjmp
	}
}

// Frame is one shadow call stack entry.
type Frame struct {
	Ret uint32 // expected return target
	SP  uint32 // caller stack pointer at the call
}

type shadowKey struct {
	core int
	pid  int
}

type jmpTarget struct {
	target uint32
	sp     uint32
}

// Stats aggregates monitor activity.
type Stats struct {
	Records    map[trace.Kind]uint64
	Violations uint64
	Cycles     uint64 // modelled verification cycles accumulated
}

// Policy selects which inspections are active. The paper stresses that
// monitoring is software and therefore configurable per security
// requirement (Section 3.2); disabling one inspection demonstrates the
// others' independent coverage (defence in depth).
type Policy struct {
	CallReturn      bool
	CodeOrigin      bool
	ControlTransfer bool
}

// FullPolicy enables every inspection.
func FullPolicy() Policy {
	return Policy{CallReturn: true, CodeOrigin: true, ControlTransfer: true}
}

// shadowStack is one (core, pid)'s shadow call stack. It lives behind a
// pointer in the shadows map so the per-record push/pop mutates frames
// in place instead of re-storing a slice header through the map.
type shadowStack struct {
	frames []Frame
}

// Monitor is the resurrector's inspection engine. Not safe for
// concurrent use; the chip serialises record consumption.
//
// Verify runs once per trace record — it is the resurrector half of the
// simulator's hot path — so the per-record state is kept flat: record
// counts live in a dense array indexed by kind (sized for the full
// uint8 range, since fault injection can corrupt a record's kind bits),
// and one-entry caches short-circuit the app and shadow-stack map
// lookups for the overwhelmingly common case of consecutive records
// from the same process.
type Monitor struct {
	apps    map[int]*AppInfo
	shadows map[shadowKey]*shadowStack
	setjmps map[int][]jmpTarget
	costs   CostConfig

	records    [256]uint64 // indexed by trace.Kind
	violations uint64
	cycles     uint64

	lastApp   *AppInfo // one-entry cache over apps (nil = cold)
	lastKey   shadowKey
	lastStack *shadowStack // one-entry cache over shadows (nil = cold)

	// Policy gates the inspections; shadow state is maintained even for
	// disabled checks so policies can be tightened at runtime.
	Policy Policy
	// Strict controls whether traces from unregistered processes are
	// violations (true, production) or ignored (false, boot/tests).
	Strict bool
}

// New creates a monitor with the given cost model and all inspections
// enabled.
func New(costs CostConfig) *Monitor {
	return &Monitor{
		apps:    make(map[int]*AppInfo),
		shadows: make(map[shadowKey]*shadowStack),
		setjmps: make(map[int][]jmpTarget),
		costs:   costs,
		Policy:  FullPolicy(),
		Strict:  true,
	}
}

// RegisterApp records a service application's code identity. Called
// through the chip when the OS loader starts the program.
func (m *Monitor) RegisterApp(info *AppInfo) {
	m.apps[info.PID] = info
	m.lastApp = nil // a PID may be re-registered after reboot recovery
}

// Forget drops everything the monitor holds for pid — its code
// identity, its shadow stacks on every core and its setjmp targets —
// once the process is gone.
func (m *Monitor) Forget(pid int) {
	delete(m.apps, pid)
	delete(m.setjmps, pid)
	for key := range m.shadows {
		if key.pid == pid {
			delete(m.shadows, key)
		}
	}
	m.lastApp, m.lastStack = nil, nil
}

// shadow returns the (core, pid) shadow stack, creating it on first
// use, through a one-entry cache.
func (m *Monitor) shadow(key shadowKey) *shadowStack {
	if m.lastStack != nil && m.lastKey == key {
		return m.lastStack
	}
	s := m.shadows[key]
	if s == nil {
		s = &shadowStack{}
		m.shadows[key] = s
	}
	m.lastKey, m.lastStack = key, s
	return s
}

// App returns the registered info for a PID.
func (m *Monitor) App(pid int) (*AppInfo, bool) {
	a, ok := m.apps[pid]
	return a, ok
}

// RegisterSetjmp records a legitimate longjmp resume point (3.2.1).
func (m *Monitor) RegisterSetjmp(pid int, target, sp uint32) {
	m.setjmps[pid] = append(m.setjmps[pid], jmpTarget{target, sp})
}

// RegisterDynCode adds a declared dynamic-code region for pid.
func (m *Monitor) RegisterDynCode(pid int, r Region) {
	if a, ok := m.apps[pid]; ok {
		a.DynCode = append(a.DynCode, r)
	}
}

// Stats returns a snapshot. The Records map is freshly built per call
// (internally the counts are a dense array); only kinds with non-zero
// counts appear, matching the old map-backed behaviour.
func (m *Monitor) Stats() Stats {
	rec := make(map[trace.Kind]uint64, trace.NumKinds)
	for k, v := range m.records {
		if v != 0 {
			rec[trace.Kind(k)] = v
		}
	}
	return Stats{Records: rec, Violations: m.violations, Cycles: m.cycles}
}

// RecordCount returns the number of records of one kind verified so far
// (allocation-free; Stats builds the full map).
func (m *Monitor) RecordCount(k trace.Kind) uint64 { return m.records[k] }

// ShadowDepth returns the shadow stack depth for a (core, pid).
func (m *Monitor) ShadowDepth(core, pid int) int {
	if s := m.shadows[shadowKey{core, pid}]; s != nil {
		return len(s.frames)
	}
	return 0
}

// SnapshotShadow copies the shadow stack for checkpointing: recovery
// must rewind the monitor's call model along with the application.
func (m *Monitor) SnapshotShadow(core, pid int) []Frame {
	if s := m.shadows[shadowKey{core, pid}]; s != nil {
		return append([]Frame(nil), s.frames...)
	}
	return nil
}

// RestoreShadow reinstalls a snapshot taken by SnapshotShadow. The
// existing backing array is reused when large enough.
func (m *Monitor) RestoreShadow(core, pid int, frames []Frame) {
	s := m.shadow(shadowKey{core, pid})
	s.frames = append(s.frames[:0], frames...)
}

// Verify inspects one record, returning the modelled verification cost
// and a non-nil Violation on detection. State updates (shadow pushes
// and pops) happen even for violating records, mirroring software that
// reports and continues until the chip reacts.
func (m *Monitor) Verify(rec trace.Record) (uint64, *Violation) {
	m.records[rec.Kind]++
	cost := m.costs.Cost(rec.Kind)
	m.cycles += cost

	app := m.lastApp
	if app == nil || app.PID != rec.PID {
		var known bool
		app, known = m.apps[rec.PID]
		if !known {
			if m.Strict {
				m.violations++
				return cost, &Violation{Kind: UnknownApp, Rec: rec}
			}
			return cost, nil
		}
		m.lastApp = app
	}

	key := shadowKey{rec.Core, rec.PID}
	switch rec.Kind {
	case trace.KindCall:
		s := m.shadow(key)
		s.frames = append(s.frames, Frame{Ret: rec.Ret, SP: rec.SP})
		if m.Policy.ControlTransfer && rec.Indirect && !m.validEntry(app, rec.Target) {
			m.violations++
			return cost, &Violation{Kind: BadCallTarget, Rec: rec}
		}

	case trace.KindReturn:
		s := m.shadow(key)
		if len(s.frames) == 0 {
			if !m.Policy.CallReturn {
				return cost, nil
			}
			m.violations++
			return cost, &Violation{Kind: ShadowUnderflow, Rec: rec}
		}
		top := s.frames[len(s.frames)-1]
		s.frames = s.frames[:len(s.frames)-1]
		if rec.Target != top.Ret {
			if m.isLongjmp(rec) {
				m.unwindTo(key, rec.SP)
				return cost, nil
			}
			if !m.Policy.CallReturn {
				return cost, nil
			}
			m.violations++
			return cost, &Violation{Kind: ReturnMismatch, Rec: rec, Expected: top.Ret}
		}

	case trace.KindCodeOrigin:
		page := rec.Target
		if m.Policy.CodeOrigin && !app.CodePages[page] && !inDynCode(app, page) {
			m.violations++
			return cost, &Violation{Kind: CodeOriginViolation, Rec: rec}
		}

	case trace.KindControl:
		if m.Policy.ControlTransfer && !m.validEntry(app, rec.Target) {
			m.violations++
			return cost, &Violation{Kind: BadControlTarget, Rec: rec}
		}

	case trace.KindSetjmp:
		m.RegisterSetjmp(rec.PID, rec.Target, rec.SP)

	case trace.KindLongjmp:
		if m.isLongjmp(rec) {
			m.unwindTo(key, rec.SP)
			return cost, nil
		}
		m.violations++
		return cost, &Violation{Kind: BadControlTarget, Rec: rec}
	}
	return cost, nil
}

// validEntry reports whether target is an acceptable computed/indirect
// control destination: a function entry, an exported entry point, or
// within declared dynamic code.
func (m *Monitor) validEntry(app *AppInfo, target uint32) bool {
	return app.Funcs[target] || app.Exports[target] || inDynCode(app, target)
}

func inDynCode(app *AppInfo, addr uint32) bool {
	for _, r := range app.DynCode {
		if addr >= r.Lo && addr < r.Hi {
			return true
		}
	}
	return false
}

// isLongjmp checks whether a non-local transfer matches a registered
// setjmp target (the env restores both PC and SP, so both must match).
func (m *Monitor) isLongjmp(rec trace.Record) bool {
	for _, j := range m.setjmps[rec.PID] {
		if j.target == rec.Target && j.sp == rec.SP {
			return true
		}
	}
	return false
}

// unwindTo pops shadow frames made at or below the restored stack
// pointer — exactly the frames a longjmp discards. Stacks grow down, so
// discarded frames have SP <= the setjmp-time SP: calls issued by the
// setjmp function itself (same SP) and everything deeper. Ancestor
// frames, whose call-time SP is higher, survive.
func (m *Monitor) unwindTo(key shadowKey, sp uint32) {
	s := m.shadow(key)
	stack := s.frames
	for len(stack) > 0 && stack[len(stack)-1].SP <= sp {
		stack = stack[:len(stack)-1]
	}
	s.frames = stack
}
