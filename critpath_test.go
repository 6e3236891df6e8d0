package hetcc_test

import (
	"testing"

	"hetcc"
)

// TestCriticalPathProperties checks the critical-path acceptance invariants
// over the full 27-combination matrix (platform × scenario × solution, spans
// and profiling enabled):
//
//  1. every run carries a critical path whose cycle attributions sum to
//     exactly the run's total cycles (conservation — no cycle unexplained,
//     none double-counted);
//  2. the profile-ledger cross-check passes, i.e. every critical-path cause
//     total is bounded by the corresponding per-core stall-cause ledger
//     entry (scaled by the anchor core's clock divider).
//
// Both hold under both the event and the tick scheduler.  That span
// collection only observes is TestObserverNeutrality's gate.
func TestCriticalPathProperties(t *testing.T) {
	for _, scheduler := range schedulerModes {
		scheduler := scheduler
		t.Run(scheduler, func(t *testing.T) {
			testCriticalPathProperties(t, scheduler)
		})
	}
}

func testCriticalPathProperties(t *testing.T, scheduler string) {
	specs := determinismBatch(t, scheduler)
	withSpans := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: 8, Reports: true})
	if err := hetcc.BatchFirstError(withSpans); err != nil {
		t.Fatalf("spans-enabled batch failed: %v", err)
	}

	for _, r := range withSpans {
		cp := r.Result.CriticalPath
		if cp == nil {
			t.Errorf("%s: no critical path on a spans-enabled run", r.Label)
			continue
		}
		if cp.CrossCheckError != "" {
			t.Errorf("%s: profile-ledger cross-check failed: %s", r.Label, cp.CrossCheckError)
		}
		if got, want := cp.CyclesAttributed(), r.Result.Cycles; got != want {
			t.Errorf("%s: critical path attributes %d cycles, run took %d", r.Label, got, want)
		}
		if cp.TotalCycles != r.Result.Cycles {
			t.Errorf("%s: critical path reports %d total cycles, run took %d",
				r.Label, cp.TotalCycles, r.Result.Cycles)
		}
		for _, a := range cp.Attribution {
			if a.Component == "" || a.Cause == "" {
				t.Errorf("%s: attribution with empty component/cause: %+v", r.Label, a)
			}
		}
	}
}
