package audit

import (
	"encoding/json"
	"testing"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/event"
)

const line0, line1 = uint32(0x2000_0000), uint32(0x2000_0020)

// change feeds one StateChange record straight into the auditor, as the
// event sink would.
func change(a *Auditor, cycle uint64, core int, addr uint32, next coherence.State) {
	a.Handle(&event.Record{Cycle: cycle, Kind: event.StateChange, Core: core, Addr: addr, New: next})
}

func TestCleanSharingIsSilent(t *testing.T) {
	a := New(Config{Cores: 2})
	// MSI-style sharing then ownership hand-off, always coherent.
	change(a, 1, 0, line0, coherence.Shared)
	change(a, 2, 1, line0, coherence.Shared)
	change(a, 3, 0, line0, coherence.Invalid)
	change(a, 4, 1, line0, coherence.Modified)
	change(a, 5, 1, line0, coherence.Invalid)
	change(a, 6, 0, line0, coherence.Exclusive)
	if a.ViolationCount() != 0 {
		t.Fatalf("violations on a coherent sequence: %v", a.Violations())
	}
	if got := a.Summary().TransitionCount; got != 6 {
		t.Fatalf("transition count %d, want 6", got)
	}
}

func TestSWMRTwoWriters(t *testing.T) {
	a := New(Config{Cores: 2})
	change(a, 1, 0, line0, coherence.Modified)
	change(a, 2, 1, line0, coherence.Exclusive)
	vs := a.Violations()
	if len(vs) != 1 || vs[0].Check != core.CheckSWMR || vs[0].Cycle != 2 || vs[0].Addr != line0 {
		t.Fatalf("violations %v, want one swmr at cycle 2", vs)
	}
}

func TestSWMRWriterPlusReader(t *testing.T) {
	a := New(Config{Cores: 2})
	change(a, 1, 0, line0, coherence.Shared)
	change(a, 2, 1, line0, coherence.Exclusive)
	vs := a.Violations()
	if len(vs) != 1 || vs[0].Check != core.CheckSWMR {
		t.Fatalf("violations %v, want one swmr (E coexisting with S)", vs)
	}
}

func TestDirtyOwnerMOESI(t *testing.T) {
	a := New(Config{Cores: 2})
	// O+S is the legal MOESI sharing pattern; O+M breaks single dirty owner.
	change(a, 1, 0, line0, coherence.Owned)
	change(a, 2, 1, line0, coherence.Shared)
	if a.ViolationCount() != 0 {
		t.Fatalf("O+S flagged: %v", a.Violations())
	}
	change(a, 3, 1, line0, coherence.Modified)
	var kinds []string
	for _, v := range a.Violations() {
		kinds = append(kinds, v.Check)
	}
	found := false
	for _, k := range kinds {
		if k == core.CheckDirtyOwner {
			found = true
		}
	}
	if !found {
		t.Fatalf("O+M produced %v, want a dirty-owner violation", kinds)
	}
}

func TestIllegalStateAgainstReduction(t *testing.T) {
	// Core 0 is restricted to the MEI reduction; core 1 is unrestricted.
	a := New(Config{Cores: 2, Allowed: []coherence.StateSet{
		coherence.SetOf(coherence.Exclusive, coherence.Modified),
		0,
	}})
	change(a, 1, 1, line0, coherence.Shared) // unrestricted core: fine
	change(a, 2, 0, line1, coherence.Exclusive)
	if a.ViolationCount() != 0 {
		t.Fatalf("legal states flagged: %v", a.Violations())
	}
	change(a, 3, 0, line1, coherence.Shared)
	vs := a.Violations()
	if len(vs) == 0 || vs[0].Check != core.CheckIllegalState || vs[0].Core != 0 {
		t.Fatalf("violations %v, want illegal-state on core 0", vs)
	}
}

func TestViolationCapKeepsCounting(t *testing.T) {
	a := New(Config{Cores: 2, MaxViolations: 3})
	for i := 0; i < 10; i++ {
		change(a, uint64(i), 0, line0, coherence.Modified)
		change(a, uint64(i), 1, line0, coherence.Modified)
	}
	if len(a.Violations()) != 3 {
		t.Fatalf("retained %d, want cap of 3", len(a.Violations()))
	}
	if a.ViolationCount() <= 3 {
		t.Fatalf("total %d should keep counting past the cap", a.ViolationCount())
	}
}

func TestLineCapCountsUntracked(t *testing.T) {
	a := New(Config{Cores: 1, MaxLines: 1})
	change(a, 1, 0, line0, coherence.Exclusive)
	change(a, 2, 0, line1, coherence.Exclusive)
	s := a.Summary()
	if len(s.Lines) != 1 || s.UntrackedChanges != 1 {
		t.Fatalf("lines=%d untracked=%d, want 1/1", len(s.Lines), s.UntrackedChanges)
	}
}

func TestOutOfRangeMasterIgnored(t *testing.T) {
	a := New(Config{Cores: 2})
	change(a, 1, 5, line0, coherence.Modified) // e.g. the DMA engine's master id
	change(a, 2, -1, line0, coherence.Modified)
	if a.ViolationCount() != 0 || a.Summary().TransitionCount != 0 {
		t.Fatal("out-of-range masters must be excluded from per-core tracking")
	}
}

func TestSummaryShapeAndDeterminism(t *testing.T) {
	a := New(Config{Cores: 2})
	change(a, 1, 0, line1, coherence.Modified)
	change(a, 2, 0, line1, coherence.Invalid)
	change(a, 3, 0, line0, coherence.Exclusive)
	change(a, 4, 1, line0+0x40, coherence.Shared)
	s := a.Summary()
	if got := s.Reachable[0]; len(got) != 3 || got[0] != "I" || got[1] != "E" || got[2] != "M" {
		t.Fatalf("core 0 reachable %v, want protocol order [I E M]", got)
	}
	if len(s.Lines) != 3 || s.Lines[0].Addr != "0x20000000" || s.Lines[1].Transitions != 2 {
		t.Fatalf("lines %v, want 3 entries sorted by address", s.Lines)
	}
	a.Handle(&event.Record{Kind: event.Retry, Core: 0, Addr: line0})
	if ev := a.Summary().Events; len(ev) != 2 || ev["state-change"] != 4 || ev["retry"] != 1 {
		t.Fatalf("events by kind %v, want the non-zero kinds only: state-change 4, retry 1", ev)
	}
	b1, err := json.Marshal(a.Summary())
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(a.Summary())
	if string(b1) != string(b2) {
		t.Fatal("summary marshalling is not deterministic")
	}
}
