package hetcc

// Conservation property of the stall-cause ledger (ISSUE 4's load-bearing
// correctness rule): for every core, the sum of the attributed stall causes
// must equal cpu.Stats.StallCycles exactly — no cycle double-counted, no
// cycle lost.  Exercised across the full protocol-pair matrix, all three
// coherence solutions, and the lock mechanisms, because the causes originate
// in different subsystems (bus phases, cache drains, ISR drains, lock
// steppers) and an attribution gap in any of them would break the sum.

import (
	"errors"
	"fmt"
	"testing"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/platform"
	"hetcc/internal/profile"
	"hetcc/internal/sim"
)

// schedulerModes: the conservation sweeps run under both engine scheduling
// strategies — the lazy stall-ledger flushing the event scheduler relies on
// must attribute exactly the same cycles as per-edge ticking.
var schedulerModes = []string{platform.SchedulerEvent, platform.SchedulerTick}

// checkConservation asserts the per-core cause sums equal StallCycles, both
// in the summary's own arithmetic and against the CPU counters.
func checkConservation(t *testing.T, res Result) {
	t.Helper()
	if res.Profile == nil {
		t.Fatal("run had no profile summary")
	}
	if len(res.Profile.Cores) != len(res.CPU) {
		t.Fatalf("profile covers %d cores, run has %d", len(res.Profile.Cores), len(res.CPU))
	}
	for i, cs := range res.Profile.Cores {
		var sum uint64
		for _, n := range cs.Causes {
			sum += n
		}
		if sum != cs.StallCycles {
			t.Errorf("core %d: summary causes sum %d != summary stall_cycles %d", i, sum, cs.StallCycles)
		}
		if sum != res.CPU[i].StallCycles {
			t.Errorf("core %d: attributed causes sum %d != StallCycles %d (causes %v)",
				i, sum, res.CPU[i].StallCycles, cs.Causes)
		}
	}
}

func specFor(k coherence.Kind, idx int) platform.ProcessorSpec {
	if k == coherence.None {
		s := platform.ARM920T()
		s.Model = fmt.Sprintf("core%d-none", idx)
		return s
	}
	s := platform.Generic(fmt.Sprintf("core%d-%s", idx, k), k, 1)
	return s
}

// TestStallConservationProtocolMatrix runs the WCS workload under the
// Proposed solution for every reducible protocol pair.
func TestStallConservationProtocolMatrix(t *testing.T) {
	kinds := []coherence.Kind{
		coherence.MEI, coherence.MSI, coherence.MESI,
		coherence.MOESI, coherence.Dragon, coherence.None,
	}
	for _, sched := range schedulerModes {
		for _, a := range kinds {
			for _, b := range kinds {
				sched, a, b := sched, a, b
				t.Run(fmt.Sprintf("%s/%v+%v", sched, a, b), func(t *testing.T) {
					if _, err := core.Reduce([]coherence.Kind{a, b}); err != nil {
						t.Skipf("pair not reducible: %v", err)
					}
					res := MustRun(Config{
						Scenario:   WCS,
						Solution:   Proposed,
						Processors: []platform.ProcessorSpec{specFor(a, 0), specFor(b, 1)},
						Params:     Params{Lines: 8, ExecTime: 1, Iterations: 4, WordsPerLine: 8},
						Verify:     true,
						Profile:    true,
						Scheduler:  sched,
						MaxCycles:  5_000_000,
					})
					if res.Err != nil {
						t.Fatalf("run failed: %v (%s)", res.Err, res.StopReason)
					}
					checkConservation(t, res)
				})
			}
		}
	}
}

// TestStallConservationSolutionsAndLocks sweeps the coherence solutions,
// scenarios and lock mechanisms on the paper's PF2 platform — each engages a
// different stall source (software drains, ISR drains, lock word traffic).
func TestStallConservationSolutionsAndLocks(t *testing.T) {
	scenarios := []Scenario{WCS, TCS, BCS}
	solutions := []Solution{CacheDisabled, Software, Proposed}
	locks := []platform.LockKind{platform.LockUncachedTAS, platform.LockBakery, platform.LockHardwareRegister}
	for _, sched := range schedulerModes {
		for _, sc := range scenarios {
			for _, sol := range solutions {
				for _, lk := range locks {
					sched, sc, sol, lk := sched, sc, sol, lk
					t.Run(fmt.Sprintf("%s/%v/%v/%v", sched, sc, sol, lk), func(t *testing.T) {
						res := MustRun(Config{
							Scenario:  sc,
							Solution:  sol,
							Params:    Params{Lines: 6, ExecTime: 1, Iterations: 3, WordsPerLine: 8},
							Lock:      &platform.LockChoice{Kind: lk, Alternate: sc.Alternate(), SpinDelay: 4},
							Verify:    true,
							Profile:   true,
							Scheduler: sched,
						})
						if res.Err != nil {
							t.Fatalf("run failed: %v (%s)", res.Err, res.StopReason)
						}
						checkConservation(t, res)
					})
				}
			}
		}
	}
}

// TestStallProfileAttributesKnownCauses pins qualitative expectations on the
// paper's PF2 platform under the Proposed solution: drains (ISR steals),
// refills and lock spins must all be visible, and nothing may land in the
// unclassified bucket.
func TestStallProfileAttributesKnownCauses(t *testing.T) {
	res := MustRun(Config{
		Scenario: WCS,
		Solution: Proposed,
		Params:   Params{Lines: 8, ExecTime: 1, Iterations: 4, WordsPerLine: 8},
		Verify:   true,
		Profile:  true,
	})
	if res.Err != nil {
		t.Fatalf("run failed: %v (%s)", res.Err, res.StopReason)
	}
	checkConservation(t, res)
	total := func(cause profile.Cause) uint64 {
		var n uint64
		for _, cs := range res.Profile.Cores {
			n += cs.Causes[cause.String()]
		}
		return n
	}
	if total(profile.CauseRefill) == 0 {
		t.Error("no refill cycles attributed; every miss pays a memory burst")
	}
	if total(profile.CauseDrain) == 0 {
		t.Error("no drain cycles attributed; WCS under Proposed forces ISR steals")
	}
	if total(profile.CauseLock) == 0 {
		t.Error("no lock-spin cycles attributed; the workload is lock-based")
	}
	if n := total(profile.CauseOther); n != 0 {
		t.Errorf("%d cycles unclassified; every PF2 stall source is instrumented", n)
	}
}

// TestStallProfileInvalRemiss checks the invalidation-re-miss attribution on
// the paper's PF3 platform (PowerPC755 MEI + Intel486 MESI): the reduction
// forces the Intel486's wrapper to convert remote reads to writes, so its
// lines are invalidated and re-missed — the coherence cost the paper's
// Figure 6 measures.
func TestStallProfileInvalRemiss(t *testing.T) {
	res := MustRun(Config{
		Scenario:   WCS,
		Solution:   Proposed,
		Processors: platform.PPCI486(),
		Params:     Params{Lines: 8, ExecTime: 1, Iterations: 4, WordsPerLine: 8},
		Verify:     true,
		Profile:    true,
	})
	if res.Err != nil {
		t.Fatalf("run failed: %v (%s)", res.Err, res.StopReason)
	}
	checkConservation(t, res)
	i486 := res.Profile.Cores[1]
	if i486.Causes[profile.CauseInval.String()] == 0 {
		t.Errorf("Intel486 shows no inval-remiss cycles; causes %v", i486.Causes)
	}
}

// TestStallConservationAbnormalEnds covers runs that end with a core still
// stalled, where the ledger's end-of-run flush alone attributes the trailing
// edges: the PF2 cached test-and-set run that ends in the paper's hardware
// deadlock, and PF2 WCS runs cut short by their cycle budget.
func TestStallConservationAbnormalEnds(t *testing.T) {
	base := Config{
		Scenario: WCS,
		Solution: Proposed,
		Params:   Params{Lines: 4, ExecTime: 1, Iterations: 6},
		Verify:   true,
		Profile:  true,
	}
	deadlock := base
	deadlock.Lock = &platform.LockChoice{Kind: platform.LockCachedTAS, SpinDelay: 4}
	deadlock.MaxCycles = 5_000_000
	for _, sched := range schedulerModes {
		t.Run(sched+"/cached-tas-deadlock", func(t *testing.T) {
			cfg := deadlock
			cfg.Scheduler = sched
			res := MustRun(cfg)
			if !res.Deadlocked() {
				t.Fatalf("want the hardware deadlock, got err=%v (%s)", res.Err, res.StopReason)
			}
			checkConservation(t, res)
		})
		for _, budget := range []uint64{1001, 5003} {
			t.Run(fmt.Sprintf("%s/budget-%d", sched, budget), func(t *testing.T) {
				cfg := base
				cfg.Scheduler = sched
				cfg.MaxCycles = budget
				res := MustRun(cfg)
				if !errors.Is(res.Err, sim.ErrMaxCycles) || res.Cycles != budget {
					t.Fatalf("want the budget cut at %d cycles, got err=%v after %d", budget, res.Err, res.Cycles)
				}
				checkConservation(t, res)
			})
		}
	}
}
