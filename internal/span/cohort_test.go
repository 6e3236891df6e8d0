package span

import (
	"testing"

	"hetcc/internal/bus"
	"hetcc/internal/profile"
)

// cohortFixture builds a collector with two masters hitting two lines:
// master 0 reads both lines (one drain-retried), master 1 writes line 0 back.
func cohortFixture(t *testing.T) *Collector {
	t.Helper()
	c := NewCollector(32)
	f := newFeed(c)
	rd := uint8(bus.ReadLine)
	wb := uint8(bus.WriteLine)
	f.at(10).sink.BusRequest(0, rd, 0x2000_0000, 1)
	f.at(14).sink.Retry(0, rd, 0x2000_0000, 1, true, 1)
	f.at(16).sink.BusRequest(1, wb, 0x2000_0000, 2)
	f.at(30).sink.BusComplete(1, wb, 0x2000_0000, 2, 0, 0, 0)
	f.at(30).sink.Drain(1, 0x2000_0000, 2)
	f.at(50).sink.BusComplete(0, rd, 0x2000_0000, 1, 0, 0, 0)
	f.at(60).sink.BusRequest(0, rd, 0x2000_0020, 3)
	f.at(80).sink.BusComplete(0, rd, 0x2000_0020, 3, 0, 0, 0)

	stalls := []profile.Span{
		{Core: 0, Cause: profile.CauseDrain, Start: 14, End: 31},
		{Core: 0, Cause: profile.CauseRefill, Start: 31, End: 51},
		{Core: 0, Cause: profile.CauseLock, Start: 52, End: 56}, // no txn
		{Core: 0, Cause: profile.CauseRefill, Start: 61, End: 81},
		{Core: 1, Cause: profile.CauseDrain, Start: 18, End: 28},
	}
	c.Finish(stalls, 100)
	return c
}

// TestCohortsPartitionIsExact: execute + unlinked + per-cohort critical
// cycles reconstruct the anchor timeline exactly, and the per-cohort counts
// aggregate the transaction records.
func TestCohortsPartitionIsExact(t *testing.T) {
	c := cohortFixture(t)
	s := Cohorts(c, 0, 100, func(id int) string {
		return []string{"ppc", "arm"}[id]
	})
	if s == nil {
		t.Fatal("nil summary from a live collector")
	}
	if !s.Conserved() {
		t.Fatalf("partition not conserved: %+v", s)
	}
	// Anchor stalls: 17+20+4+20 = 61, so execute = 39 and the lock spin (4
	// cycles) is unlinked.
	if s.ExecuteCycles != 39 || s.UnlinkedCycles != 4 {
		t.Fatalf("execute %d unlinked %d, want 39/4", s.ExecuteCycles, s.UnlinkedCycles)
	}
	if len(s.Cohorts) != 3 {
		t.Fatalf("%d cohorts, want 3: %+v", len(s.Cohorts), s.Cohorts)
	}
	byKey := map[string]Cohort{}
	for _, co := range s.Cohorts {
		byKey[co.Component+"/"+co.Op+"/"+co.Line] = co
	}
	line0 := byKey["ppc/RdLine/0x20000000"]
	if line0.Count != 1 || line0.Retries != 1 || line0.DrainRetries != 1 {
		t.Fatalf("line0 cohort counts wrong: %+v", line0)
	}
	// Both anchor stall spans on txn 1: 17 + 20 = 37 critical cycles, and 40
	// cycles of submit→complete latency.
	if line0.CriticalCycles != 37 || line0.BlockedCycles != 37 || line0.LatencyCycles != 40 {
		t.Fatalf("line0 cohort cycles wrong: %+v", line0)
	}
	wbCo := byKey["arm/WrLine/0x20000000"]
	// Master 1's own drain stall links to its write-back: blocked but not
	// critical (anchor is core 0).
	if wbCo.BlockedCycles != 10 || wbCo.CriticalCycles != 0 {
		t.Fatalf("write-back cohort cycles wrong: %+v", wbCo)
	}
	line1 := byKey["ppc/RdLine/0x20000020"]
	if line1.CriticalCycles != 20 || line1.Count != 1 || line1.Retries != 0 {
		t.Fatalf("line1 cohort wrong: %+v", line1)
	}
}

// TestCohortsNilAndOrdering: nil collectors yield nil, and cohorts sort
// deterministically by (master, op kind, line).
func TestCohortsNilAndOrdering(t *testing.T) {
	if Cohorts(nil, 0, 100, nil) != nil {
		t.Fatal("nil collector must yield a nil summary")
	}
	c := cohortFixture(t)
	s := Cohorts(c, 0, 100, nil)
	if s.Cohorts[0].Master != 0 || s.Cohorts[len(s.Cohorts)-1].Master != 1 {
		t.Fatalf("cohorts not sorted by master: %+v", s.Cohorts)
	}
	for i := 1; i < len(s.Cohorts); i++ {
		a, b := s.Cohorts[i-1], s.Cohorts[i]
		if a.Master > b.Master || (a.Master == b.Master && a.Line > b.Line && a.Op == b.Op) {
			t.Fatalf("cohort order unstable at %d: %+v", i, s.Cohorts)
		}
	}
	// Default naming falls back to numeric labels.
	if s.Cohorts[0].Component != "master 0" {
		t.Fatalf("default component label %q", s.Cohorts[0].Component)
	}
}
