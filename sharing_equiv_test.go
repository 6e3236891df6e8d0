package hetcc_test

import (
	"testing"

	"hetcc"
)

// TestSharingDigestEquivalence checks the sharing collector's conservation
// invariants across the full 27-run matrix under both schedulers: each
// touched line is in exactly one class, and the per-line and per-cell
// counters sum to the event-stream totals.  That enabling the collector
// changes nothing but its own section is TestObserverNeutrality's gate.
func TestSharingDigestEquivalence(t *testing.T) {
	for _, scheduler := range schedulerModes {
		scheduler := scheduler
		t.Run(scheduler, func(t *testing.T) {
			specs := determinismBatch(t, scheduler)
			for i := range specs {
				specs[i].Config.Sharing = true
			}
			results := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: 4, Reports: true})
			if err := hetcc.BatchFirstError(results); err != nil {
				t.Fatalf("sharing-on batch failed: %v", err)
			}
			for _, r := range results {
				s := r.Report.Sharing
				if s == nil {
					t.Errorf("%s: sharing-on run produced no summary", r.Label)
					continue
				}
				if bad := s.Conserved(); bad != "" {
					t.Errorf("%s: conservation violated: %s", r.Label, bad)
				}
			}
		})
	}
}

// TestSharingContentOnContendedRun spot-checks summary content on a real
// contended run: the WCS data lines under the proposed solution are written
// by both masters in lock-protected turns, so they must classify migratory
// and the communication matrix must show traffic in both directions.
func TestSharingContentOnContendedRun(t *testing.T) {
	res := hetcc.MustRun(hetcc.Config{
		Scenario: hetcc.WCS,
		Solution: hetcc.Proposed,
		Params:   hetcc.Params{Lines: 8, ExecTime: 1, Iterations: 8},
		Verify:   true,
		Sharing:  true,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	s := res.Sharing
	if s == nil {
		t.Fatal("no sharing summary on a sharing-enabled run")
	}
	if bad := s.Conserved(); bad != "" {
		t.Fatalf("conservation violated: %s", bad)
	}
	if s.ClassCounts["migratory"] == 0 {
		t.Fatalf("no migratory lines on a lock-stepped WCS run: %v", s.ClassCounts)
	}
	var dirs [2]bool
	for _, m := range s.Matrix {
		if m.From == 0 && m.To == 1 {
			dirs[0] = true
		}
		if m.From == 1 && m.To == 0 {
			dirs[1] = true
		}
	}
	if !dirs[0] || !dirs[1] {
		t.Fatalf("communication matrix missing a direction: %+v", s.Matrix)
	}
	if len(s.Heatmap.Windows) == 0 {
		t.Fatal("no heat windows on a multi-thousand-cycle run")
	}
}
