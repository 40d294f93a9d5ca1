package indra

import (
	"bytes"
	"testing"

	"indra/internal/attack"
	"indra/internal/chip"
	"indra/internal/monitor"
	"indra/internal/netsim"
	"indra/internal/workload"
)

// TestSecurityEvaluationAllServices is the reproduction of Section 4.1:
// every attack class is launched against every service; INDRA must
// detect the exploit, roll the service back, and keep serving the
// legitimate clients. (The paper validates against four real CVE
// exploits across its daemons; here each synthetic daemon carries the
// same vulnerability classes.)
func TestSecurityEvaluationAllServices(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is not short")
	}
	for _, name := range workload.Names() {
		for _, kind := range attack.Kinds() {
			t.Run(name+"/"+string(kind), func(t *testing.T) {
				cfg := chip.DefaultConfig()
				cfg.Recovery.InstrBudget = 2_000_000
				const legit = 3
				run, err := RunService(name, Options{
					Chip:        &cfg,
					Requests:    legit,
					Attacks:     []attack.Kind{kind},
					AttackAfter: 1, // exploit arrives amid legit traffic
				})
				if err != nil {
					t.Fatal(err)
				}
				rec := run.Recovery()
				detected := len(run.Violations()) > 0 ||
					rec.MicroRecoveries+rec.MacroRecoveries > 0
				if !detected {
					t.Fatal("attack not detected")
				}
				if run.Summary.Served < legit {
					t.Fatalf("service availability lost: served %d of %d legit (summary %+v)",
						run.Summary.Served, legit, run.Summary)
				}
			})
		}
	}
}

// TestDetectionMapping pins each attack class to the inspection the
// paper's Table 2 assigns it.
func TestDetectionMapping(t *testing.T) {
	expect := map[attack.Kind]monitor.ViolationKind{
		attack.StackSmash: monitor.ReturnMismatch,
		attack.FptrHijack: monitor.BadCallTarget,
	}
	for kind, want := range expect {
		run, err := RunService("httpd", Options{Requests: 2, Attacks: []attack.Kind{kind}})
		if err != nil {
			t.Fatal(err)
		}
		vs := run.Violations()
		if len(vs) == 0 || vs[0].Kind != want {
			t.Errorf("%s: got %v, want %v", kind, vs, want)
		}
	}

	// Injected code maps to code-origin inspection when the call/return
	// check isn't already in the way.
	pol := monitor.FullPolicy()
	pol.CallReturn = false
	cfg := chip.DefaultConfig()
	cfg.MonitorPolicy = &pol
	run, err := RunService("httpd", Options{Chip: &cfg, Requests: 2, Attacks: []attack.Kind{attack.InjectCode}})
	if err != nil {
		t.Fatal(err)
	}
	vs := run.Violations()
	if len(vs) == 0 || vs[0].Kind != monitor.CodeOriginViolation {
		t.Errorf("inject-code without call/return check: %v, want code-origin", vs)
	}
}

// TestHybridRecoveryEscalation reproduces the Figure 8 behaviour end to
// end: a dormant fptr hijack poisons the dispatch table during a
// "successful" request; micro recovery cannot repair it, so back-to-back
// failures escalate to the macro application checkpoint, after which the
// service works again.
func TestHybridRecoveryEscalation(t *testing.T) {
	params := workload.MustByName("bind")
	prog, err := params.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}

	cfg := chip.DefaultConfig()
	cfg.Recovery.MacroPeriod = 2          // take a macro checkpoint early
	cfg.Recovery.ConsecutiveFailLimit = 2 // escalate on the third straight failure

	ch, err := chip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	legit := params.GenUniformRequests(8, workload.HBasic, 3)
	hijack, err := attack.NewFptrHijack(prog)
	if err != nil {
		t.Fatal(err)
	}
	// 3 legit (the macro checkpoint lands on the 3rd), the silent
	// hijack, then 4 triggers back-to-back: the first three fail micro,
	// the escalation restores the macro image (un-poisoning the table),
	// and the remaining trigger exercises the now-healthy slot.
	stream := append([]netsim.Request{}, legit[:3]...)
	stream = append(stream, hijack)
	for i := 0; i < 4; i++ {
		stream = append(stream, attack.NewFptrTrigger())
	}
	stream = append(stream, legit[3:]...)

	port := netsim.NewPort(stream)
	if _, err := ch.LaunchService(0, "bind", prog, port); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Run(0); err != nil {
		t.Fatal(err)
	}

	rec := ch.Recovery().Stats()
	if rec.MacroRecoveries == 0 {
		t.Fatalf("escalation to macro recovery never happened: %+v", rec)
	}
	if rec.MicroRecoveries == 0 {
		t.Fatalf("micro recoveries missing: %+v", rec)
	}
	sum := port.Summarize()
	// All 8 legit requests plus the hijack stage-1 and the post-repair
	// trigger must be served.
	if sum.Served < 9 {
		t.Fatalf("service did not survive the dormant attack: %+v", sum)
	}
}

// TestRepeatedAttacksKeepServiceAlive models the paper's core
// availability claim: recurring exploits keep "wounding" the system,
// yet well-behaved clients keep being served.
func TestRepeatedAttacksKeepServiceAlive(t *testing.T) {
	params := workload.MustByName("bind")
	prog, err := params.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := chip.New(chip.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	legit := params.GenRequests(6, 9)
	smash, err := attack.NewStackSmash(prog)
	if err != nil {
		t.Fatal(err)
	}
	var stream []netsim.Request
	for _, rq := range legit {
		stream = append(stream, rq)
		s := smash
		s.Payload = append([]byte(nil), smash.Payload...)
		stream = append(stream, s)
	}
	port := netsim.NewPort(stream)
	if _, err := ch.LaunchService(0, "bind", prog, port); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Run(0); err != nil {
		t.Fatal(err)
	}
	sum := port.Summarize()
	if sum.Served != 6 || sum.Aborted != 6 {
		t.Fatalf("under recurring attack: %+v", sum)
	}
	if ch.Recovery().Stats().MicroRecoveries != 6 {
		t.Fatalf("recoveries %+v", ch.Recovery().Stats())
	}
}

// TestAuditLogSurvivesRecovery: per Section 3.3.3, data already written
// to files is not rolled back. An httpd chip serves two HIO requests,
// each appending 16 bytes to its spool file, then a DoS late crash the
// resurrector rolls back, then two more HIO requests: the spool keeps
// the 32 bytes it held before the rollback and grows past them.
func TestAuditLogSurvivesRecovery(t *testing.T) {
	prog, err := workload.MustByName("httpd").BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	hio := func(seed byte) netsim.Request {
		p := make([]byte, workload.OffBody+32)
		p[workload.OffOpcode] = workload.HIO
		p[workload.OffSeed] = seed
		return netsim.Request{Payload: p, Label: "legit"}
	}
	port := netsim.NewPort([]netsim.Request{hio(1), hio(2), attack.NewDoSLateCrash(), hio(3), hio(4)})
	ch, err := chip.New(chip.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.LaunchService(0, "httpd", prog, port); err != nil {
		t.Fatal(err)
	}
	const spool = "spool/httpd.out"
	var before []byte
	_, err = ch.RunSegmented(0, 0, 200, func(uint64, bool) error {
		if before == nil && port.Summarize().Served == 2 {
			before, _ = ch.Kernel().ReadFile(spool)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := port.Summarize()
	if sum.Served != 4 || sum.Aborted != 1 {
		t.Fatalf("summary %+v, want 4 served and 1 aborted", sum)
	}
	if n := ch.Recovery().Stats().MicroRecoveries; n != 1 {
		t.Fatalf("%d micro recoveries, want 1", n)
	}
	after, _ := ch.Kernel().ReadFile(spool)
	if len(before) != 32 || len(after) != 64 || !bytes.Equal(after[:32], before) {
		t.Fatalf("spool held %d bytes before the rollback and %d after, want 32 kept as the first of 64",
			len(before), len(after))
	}
}

// TestSymmetricModeReconfiguration: Section 2.3.4 — the asymmetric
// platform can be configured back to a plain symmetric multicore
// (monitoring off, no backup), trading protection for zero overhead.
func TestSymmetricModeReconfiguration(t *testing.T) {
	cfg := chip.DefaultConfig()
	cfg.Monitoring = false
	cfg.Scheme = chip.SchemeNone
	run, err := RunService("bind", Options{Chip: &cfg, Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	if run.Summary.Served != 3 {
		t.Fatalf("summary %+v", run.Summary)
	}
	cs := run.Chip.Core(0).Stats()
	if cs.TraceStall != 0 || cs.SyncStall != 0 {
		t.Fatal("symmetric mode must have zero monitoring stalls")
	}
	if run.Chip.Queue(0).Stats().Pushes != 0 {
		t.Fatal("symmetric mode must not emit traces")
	}
}

// TestDoSHangLivenessDetection: the resurrector's well-being check
// catches request processing that never terminates.
func TestDoSHangLivenessDetection(t *testing.T) {
	cfg := chip.DefaultConfig()
	cfg.Recovery.InstrBudget = 300_000
	run, err := RunService("bind", Options{
		Chip:     &cfg,
		Requests: 3,
		Attacks:  []attack.Kind{attack.DoSHang},
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Recovery().BudgetKills == 0 {
		t.Fatal("hang not detected by the liveness budget")
	}
	if run.Summary.Served != 3 {
		t.Fatalf("service lost: %+v", run.Summary)
	}
}
