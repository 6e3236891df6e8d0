package audit

import (
	"testing"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/event"
)

// TestAllocsAuditor: a StateChange record on a line the auditor already
// tracks costs no allocation.  The allowed and observed sets, the line's
// state vector and the copy census all live in place (`make allocs`).
func TestAllocsAuditor(t *testing.T) {
	a := New(Config{Cores: 2, Allowed: []coherence.StateSet{core.AllowedStates(coherence.MESI, coherence.MEI), 0}})
	r := event.Record{Kind: event.StateChange, Addr: line0}
	states := [...]coherence.State{coherence.Exclusive, coherence.Modified, coherence.Invalid}
	i := 0
	record := func() {
		r.Cycle++
		r.New = states[i%len(states)]
		i++
		a.Handle(&r)
	}
	record()
	if n := testing.AllocsPerRun(1000, record); n != 0 {
		t.Fatalf("auditor allocates %.1f/op, want 0", n)
	}
	if a.ViolationCount() != 0 {
		t.Fatalf("legal E/M/I cycle flagged: %v", a.Violations())
	}
}
