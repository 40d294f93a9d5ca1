package indra

import (
	"indra/internal/cache"
	"indra/internal/fifo"
	"indra/internal/isa"
	"indra/internal/monitor"
	"indra/internal/obs"
	"indra/internal/perf"
	"indra/internal/trace"
)

// FullEvaluation regenerates every figure and table of the paper's
// evaluation once with the given options. It is the workload behind the
// full-suite benchmarks, the BENCH_baseline counter test and the
// -perfcheck performance gate.
func FullEvaluation(o ExpOptions) error {
	if _, err := Fig9(o); err != nil {
		return err
	}
	if _, err := Fig10(o); err != nil {
		return err
	}
	if _, err := Fig11(o); err != nil {
		return err
	}
	if _, err := Fig12(o); err != nil {
		return err
	}
	if _, err := Fig13(o); err != nil {
		return err
	}
	if _, err := Fig14(o); err != nil {
		return err
	}
	if _, err := Fig15(o); err != nil {
		return err
	}
	if _, err := Fig16(o); err != nil {
		return err
	}
	if _, err := Table2(o); err != nil {
		return err
	}
	if _, err := Table3(o); err != nil {
		return err
	}
	return nil
}

// PerfSuite returns the standard performance cells measured by
// `indrabench -perfcheck` and recorded in BENCH_baseline.json's perf
// section: the end-to-end evaluation suite, one representative
// single-core service run, one multi-core platform, and
// microbenchmarks of the simulator's hot-path structures (instruction
// predecode, trace FIFO, cache model, monitor).
func PerfSuite() []perf.Bench {
	return []perf.Bench{
		// End-to-end wall time wobbles with GC pacing, so the cell
		// carries a slightly widened ns tolerance; the stable
		// microbenchmarks below are the sharp per-structure gates.
		{Name: "full-suite", Iters: 2, NsTol: 0.20, Fn: func() (uint64, error) {
			o := ExpOptions{Requests: 2, Scale: 1.0, Seed: 1, Workers: 0}
			return 0, FullEvaluation(o)
		}},
		// Observed variant: the same suite with metrics armed on every
		// cell, gating the cost of the observability layer itself. The
		// merged cycle counter feeds the sim-throughput column. Wall
		// time here is dominated by GC pacing over snapshot and page
		// allocations and swings ±40% run to run, so the gate
		// only bounds catastrophe (a ~2x observation-cost regression);
		// the allocation count stays sharply gated.
		{Name: "full-suite-observed", Iters: 2, NsTol: 0.75, Fn: func() (uint64, error) {
			suite := obs.NewSuite()
			o := ExpOptions{Requests: 2, Scale: 1.0, Seed: 1, Workers: 0, Obs: suite}
			if err := FullEvaluation(o); err != nil {
				return 0, err
			}
			return suite.Merged().Counters["slot0.cpu.cycles"], nil
		}},
		{Name: "service-httpd", Iters: 3, Fn: func() (uint64, error) {
			run, err := RunService("httpd", Options{Requests: 4})
			if err != nil {
				return 0, err
			}
			return run.Result.Cycles, nil
		}},
		// The ablation-resurrectors platform: two resurrectee cores
		// (imap and httpd) under one and under two resurrectors, run
		// serially, so the cell gates the multi-core run loop. Each
		// iteration builds two chips and allocates ~9 MB, so wall time
		// swings with GC pacing like the suites above: five
		// back-to-back runs on one 2-vCPU host ranged from 27% below
		// to 10% above their median, which the baseline records.
		{Name: "service-multicore", Iters: 3, NsTol: 0.30, Fn: func() (uint64, error) {
			r, err := AblationResurrectors(ExpOptions{Requests: 4, Scale: 1.0, Seed: 1, Workers: 1})
			if err != nil {
				return 0, err
			}
			return r.OneResCycles + r.TwoResCycles, nil
		}},
		{Name: "micro/isa-predecode", Iters: 5, Fn: func() (uint64, error) {
			var sink isa.Predecoded
			for i := uint32(0); i < 1_000_000; i++ {
				sink = isa.Predecode(i * 2654435761)
			}
			_ = sink
			return 0, nil
		}},
		// Construction happens outside the measured closure: the cell
		// pins the *steady-state* produce/consume path at zero
		// allocations per operation.
		{Name: "micro/fifo-pushpop", Iters: 5, Fn: func() func() (uint64, error) {
			q := fifo.New(64)
			rec := trace.Record{Kind: trace.KindCall, Target: 0x1000, Ret: 0x2004, SP: 0x7FFF_0000}
			return func() (uint64, error) {
				for i := 0; i < 1_000_000; i++ {
					q.Push(rec)
					q.Pop()
				}
				return 0, nil
			}
		}()},
		{Name: "micro/cache-access", Iters: 5, Fn: func() func() (uint64, error) {
			c := cache.New(cache.Config{Name: "perf", SizeBytes: 32 << 10, LineBytes: 32, Assoc: 4, WriteBack: true})
			return func() (uint64, error) {
				for i := uint32(0); i < 1_000_000; i++ {
					c.Access((i*64)%(256<<10), i&3 == 0)
				}
				return 0, nil
			}
		}()},
		{Name: "micro/monitor-verify", Iters: 5, Fn: func() func() (uint64, error) {
			m := monitor.New(monitor.DefaultCosts())
			m.RegisterApp(&monitor.AppInfo{
				PID:       1,
				Name:      "perf",
				CodePages: map[uint32]bool{0x1000: true},
				Funcs:     map[uint32]bool{0x1000: true},
				Exports:   map[uint32]bool{},
			})
			call := trace.Record{Kind: trace.KindCall, PID: 1, Target: 0x1000, Ret: 0x2004, SP: 0x7000}
			ret := trace.Record{Kind: trace.KindReturn, PID: 1, Target: 0x2004, SP: 0x7000}
			return func() (uint64, error) {
				for i := 0; i < 500_000; i++ {
					if _, v := m.Verify(call); v != nil {
						return 0, v
					}
					if _, v := m.Verify(ret); v != nil {
						return 0, v
					}
				}
				return 0, nil
			}
		}()},
	}
}
