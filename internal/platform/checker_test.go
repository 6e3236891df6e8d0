package platform

import (
	"testing"

	"hetcc/internal/audit"
	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/event"
)

// TestStaleReadCheck drives the golden model's data-value check the way the
// CPU hooks do, with the auditor it reports to.  The golden model is the
// only last-written-value store: Verify's violations and the auditor's
// stale-read check both come from it.
func TestStaleReadCheck(t *testing.T) {
	line := SharedBase
	t.Run("coherent-and-stale-reads", func(t *testing.T) {
		a := audit.New(audit.Config{Cores: 2})
		k := &checker{limit: 64, auditor: a}
		k.onStore(0, line, 7, 10)
		k.onLoad(1, line, 7, 11)
		k.onLoad(1, line+4, 0, 12) // never written: zeroed memory
		if a.ViolationCount() != 0 || len(k.violations) != 0 {
			t.Fatalf("coherent reads flagged: %v %v", a.Violations(), k.violations)
		}
		k.onLoad(1, line, 3, 13)
		vs := a.Violations()
		if len(vs) != 1 || vs[0].Check != core.CheckStaleRead || vs[0].Cycle != 13 || vs[0].Core != 1 || vs[0].Addr != line {
			t.Fatalf("audit violations %v, want one stale-read by core 1 at cycle 13", vs)
		}
		if len(k.violations) != 1 || k.violations[0].Got != 3 || k.violations[0].Want != 7 {
			t.Fatalf("golden-model violations %v, want one read of 3 where 7 was stored", k.violations)
		}
		// Private addresses are outside the check.
		private := PrivateBase + 0x1000
		k.onStore(0, private, 9, 14)
		k.onLoad(1, private, 1, 15)
		if a.ViolationCount() != 1 || len(k.violations) != 1 {
			t.Fatalf("private access checked: %v %v", a.Violations(), k.violations)
		}
	})
	// The stale read is the only breach on this stream: the state checks,
	// fed by the same run's event sink, stay quiet.
	t.Run("stale-data-value", func(t *testing.T) {
		a := audit.New(audit.Config{Cores: 2})
		sink := event.NewSink(nil)
		sink.Subscribe(a.Handle)
		k := &checker{limit: 64, auditor: a}
		sink.StateChange(0, line, coherence.Invalid, coherence.Modified)
		k.onStore(0, line, 7, 1)
		k.onLoad(1, line, 3, 2) // reads a value nobody wrote
		vs := a.Violations()
		if len(vs) != 1 || vs[0].Check != core.CheckStaleRead || a.ViolationCount() != 1 {
			t.Fatalf("flagged %v, want exactly one stale-read", vs)
		}
	})
}
