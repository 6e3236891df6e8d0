package profile

import (
	"errors"
	"strings"
	"testing"

	"hetcc/internal/bus"
	"hetcc/internal/event"
)

// TestNilLedgerIsSafe exercises every hook and accessor on a nil ledger:
// the disabled path must be a no-op, never a panic.
func TestNilLedgerIsSafe(t *testing.T) {
	var l *Ledger
	l.Stall(0, ClassAccess, 0, 1)
	l.Unstall(0, 10)
	l.HandleEvent(&event.Record{Kind: event.BusRequest})
	l.Finish(10)
	if l.Spans() != nil || l.Total(0) != 0 || l.Count(0, CauseArb) != 0 {
		t.Fatal("nil ledger misbehaves")
	}
	if s := l.Summary(); len(s.Cores) != 0 {
		t.Fatalf("nil ledger summary %+v, want zero", s)
	}
}

// TestCauseStrings pins the report keys; Causes() must enumerate them all.
func TestCauseStrings(t *testing.T) {
	want := map[Cause]string{
		CauseArb: "arb-wait", CauseRetry: "retry-backoff", CauseDrain: "drain",
		CauseRefill: "refill", CauseInval: "inval-remiss",
		CauseLock: "lock-spin", CauseOther: "other",
	}
	all := Causes()
	if len(want) != len(all) {
		t.Fatalf("test covers %d causes, package has %d", len(want), len(all))
	}
	for _, c := range all {
		if want[c] != c.String() {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want[c])
		}
	}
	if !strings.Contains(Cause(99).String(), "99") {
		t.Errorf("unknown cause renders %q", Cause(99).String())
	}
}

// drive replays a scripted bus lifecycle for core 0 through HandleEvent: a
// record at cycle now attributes the stalled edges through now against the
// state before it, as the CPU ticks before the bus each cycle.
func drive(l *Ledger, now uint64, kind event.Kind, busKind bus.Kind, drain bool) {
	l.HandleEvent(&event.Record{Cycle: now, Kind: kind, Core: 0, BusKind: uint8(busKind), Drain: drain})
}

// TestAccessCauseFollowsBusPhase walks one fill transaction through its
// phases and checks each stalled edge lands in the matching bucket.
func TestAccessCauseFollowsBusPhase(t *testing.T) {
	l := NewLedger(1)
	l.Stall(0, ClassAccess, 0, 1)

	drive(l, 1, event.BusRequest, bus.ReadLine, false)  // edge 1, before the request: unclassified
	drive(l, 2, event.Retry, bus.ReadLine, false)       // edge 2, queued, not granted: arbitration wait
	drive(l, 3, event.Retry, bus.ReadLine, true)        // edge 3, after a plain ARTRY: retry backoff
	drive(l, 4, event.BusGrant, bus.ReadLine, false)    // edge 4, after a drain-qualified ARTRY: drain
	drive(l, 5, event.BusComplete, bus.ReadLine, false) // edge 5, data phase of a read: refill
	l.Unstall(0, 5)

	want := map[Cause]uint64{CauseOther: 1, CauseArb: 1, CauseRetry: 1, CauseDrain: 1, CauseRefill: 1}
	for c, n := range want {
		if got := l.Count(0, c); got != n {
			t.Errorf("%v = %d, want %d", c, got, n)
		}
	}
	if l.Total(0) != 5 {
		t.Fatalf("total %d, want 5", l.Total(0))
	}
}

// TestWriteBackPhasesCountAsDrain checks a queued or granted write-back
// attributes the wait to the drain bucket, not arbitration/refill.
func TestWriteBackPhasesCountAsDrain(t *testing.T) {
	l := NewLedger(1)
	l.Stall(0, ClassAccess, 0, 1)
	drive(l, 0, event.BusRequest, bus.WriteLine, false)  // eviction WB queued
	drive(l, 0, event.BusRequest, bus.ReadLine, false)   // fill queued behind it
	drive(l, 1, event.BusGrant, bus.WriteLine, false)    // edge 1, arb with a pending WB: drain
	drive(l, 2, event.BusComplete, bus.WriteLine, false) // edge 2, WB data phase: drain
	drive(l, 2, event.BusGrant, bus.ReadLine, false)
	drive(l, 3, event.BusComplete, bus.ReadLine, false) // edge 3, fill data phase: refill
	l.Unstall(0, 3)

	if got := l.Count(0, CauseDrain); got != 2 {
		t.Errorf("drain = %d, want 2", got)
	}
	if got := l.Count(0, CauseRefill); got != 1 {
		t.Errorf("refill = %d, want 1", got)
	}
}

// TestInvalMissAttribution checks that a fill of a line the core lost to a
// wrapper-converted invalidation is an invalidation re-miss for the whole
// stall, that the mark may be consumed before the stall class is set, and
// that it is consumed once.
func TestInvalMissAttribution(t *testing.T) {
	const line = 0x2000_0040
	l := NewLedger(2)
	// Core 0's snooper loses the line to core 1's converted BusRd; neither
	// an unconverted invalidation nor a converted downgrade marks anything.
	l.HandleEvent(&event.Record{Kind: event.SnoopHit, Core: 0, Peer: 1, Addr: line, Inval: true, Converted: true})
	l.HandleEvent(&event.Record{Kind: event.SnoopHit, Core: 1, Peer: 0, Addr: line, Inval: true})
	l.HandleEvent(&event.Record{Kind: event.SnoopHit, Core: 1, Peer: 0, Addr: line + 0x20, Converted: true})
	fill := func(core int, addr uint32) {
		l.HandleEvent(&event.Record{Kind: event.BusRequest, Core: core, Addr: addr, BusKind: uint8(bus.ReadLine)})
	}
	// The fill request reaches the ledger before the CPU observes Pending.
	fill(0, line)
	l.Stall(0, ClassAccess, 0, 1)
	drive(l, 1, event.BusGrant, bus.ReadLine, false)
	drive(l, 2, event.BusComplete, bus.ReadLine, false)
	l.Unstall(0, 2)
	if got := l.Count(0, CauseInval); got != 2 {
		t.Fatalf("inval-remiss = %d, want 2 (flag must span the whole stall)", got)
	}
	// The next fill of the same line must not inherit the mark.
	fill(0, line)
	l.Stall(0, ClassAccess, 9, 1)
	l.Unstall(0, 10)
	if got := l.Count(0, CauseInval); got != 2 {
		t.Fatalf("inval-remiss leaked into a later stall: %d", got)
	}
	for _, addr := range []uint32{line, line + 0x20} {
		l.Stall(1, ClassAccess, 20, 1)
		fill(1, addr)
		l.Unstall(1, 21)
	}
	if got := l.Count(1, CauseInval); got != 0 {
		t.Fatalf("core 1 inval-remiss = %d, want 0 (nothing marked it)", got)
	}
}

// TestLockAndDrainClassesDominate checks the CPU-side class overrides the
// bus phase entirely.
func TestLockAndDrainClassesDominate(t *testing.T) {
	l := NewLedger(1)
	l.Stall(0, ClassLock, 0, 1)
	drive(l, 0, event.BusRequest, bus.RMWWord, false)
	drive(l, 0, event.BusGrant, bus.RMWWord, false)
	l.Unstall(0, 1)
	drive(l, 1, event.BusComplete, bus.RMWWord, false)
	l.Stall(0, ClassDrain, 1, 1)
	l.Unstall(0, 2)
	if l.Count(0, CauseLock) != 1 || l.Count(0, CauseDrain) != 1 {
		t.Fatalf("lock=%d drain=%d, want 1/1", l.Count(0, CauseLock), l.Count(0, CauseDrain))
	}
}

// TestSpans checks contiguous same-cause runs coalesce, cause changes split,
// and Finish attributes the still-stalled core's edges and closes its span.
func TestSpans(t *testing.T) {
	l := NewLedger(2)
	l.Stall(0, ClassLock, 8, 2)
	drive(l, 10, event.BusRequest, bus.RMWWord, false)
	l.Unstall(0, 12) // same cause: extends across the clock-divided gap
	l.Stall(1, ClassDrain, 10, 1)
	l.Finish(11)

	spans := l.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2: %+v", len(spans), spans)
	}
	if spans[0] != (Span{Core: 0, Cause: CauseLock, Start: 10, End: 13}) {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1] != (Span{Core: 1, Cause: CauseDrain, Start: 11, End: 12}) {
		t.Errorf("span 1 = %+v", spans[1])
	}
}

// TestSpanBound checks the retention bound drops spans (never counts) and
// reports the loss.
func TestSpanBound(t *testing.T) {
	l := NewLedger(1)
	l.maxSpans = 2
	for i := 0; i < 4; i++ {
		l.Stall(0, ClassLock, uint64(10*i), 1)
		l.Unstall(0, uint64(10*i+1))
	}
	if got := len(l.Spans()); got != 2 {
		t.Fatalf("%d spans retained, want 2", got)
	}
	s := l.Summary()
	if s.DroppedSpans != 2 {
		t.Fatalf("dropped %d, want 2", s.DroppedSpans)
	}
	if l.Total(0) != 4 {
		t.Fatalf("counts must survive span drops: total %d, want 4", l.Total(0))
	}
}

// TestSummaryAndFolded checks the summary arithmetic and the folded-stack
// rendering (core;cause count, display order, zero causes omitted).
func TestSummaryAndFolded(t *testing.T) {
	l := NewLedger(2)
	l.Stall(0, ClassLock, 0, 1)
	l.Unstall(0, 2)
	l.Stall(1, ClassDrain, 2, 1)
	l.Finish(3)

	s := l.Summary()
	if len(s.Cores) != 2 || s.Cores[0].StallCycles != 2 || s.Cores[1].StallCycles != 1 {
		t.Fatalf("summary %+v", s)
	}
	if s.Cores[0].Causes["lock-spin"] != 2 || len(s.Cores[0].Causes) != 1 {
		t.Fatalf("core 0 causes %v", s.Cores[0].Causes)
	}

	var sb strings.Builder
	if err := WriteFolded(&sb, s, func(i int) string { return []string{"ppc", "arm"}[i] }); err != nil {
		t.Fatal(err)
	}
	want := "ppc;lock-spin 2\narm;drain 1\n"
	if sb.String() != want {
		t.Fatalf("folded output %q, want %q", sb.String(), want)
	}

	sb.Reset()
	if err := WriteFolded(&sb, s, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "core0;lock-spin 2\n") {
		t.Fatalf("default labels wrong: %q", sb.String())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteFoldedPropagatesErrors(t *testing.T) {
	l := NewLedger(1)
	l.Stall(0, ClassLock, 0, 1)
	l.Finish(1)
	if err := WriteFolded(failWriter{}, l.Summary(), nil); err == nil {
		t.Fatal("write error swallowed")
	}
}

// TestOutOfRangeCoresIgnored checks events and hooks for masters beyond the
// core range (the DMA engine) are ignored, not crashed on.
func TestOutOfRangeCoresIgnored(t *testing.T) {
	l := NewLedger(1)
	l.HandleEvent(&event.Record{Kind: event.BusRequest, Core: 5})
	l.HandleEvent(&event.Record{Kind: event.BusRequest, Core: -1})
	l.Stall(7, ClassAccess, 0, 1)
	l.Unstall(7, 1)
	if l.Total(0) != 0 {
		t.Fatal("out-of-range activity leaked into core 0")
	}
}

// stallEpisode is one scripted stall of a core: stalled from the edge after
// stallAt and unstalled by a completion at unstallAt.  A zero unstallAt
// leaves the stall open to the end.
type stallEpisode struct {
	core               int
	div                uint64
	class              Class
	stallAt, unstallAt uint64
}

// replayStalls drives l through episodes and the bus events as a run would,
// cycle by cycle: the cores' edges first, then the bus.  perEdge gives every
// stalled edge a record for its core that changes nothing, so the ledger
// flushes at each one; otherwise stalled edges are flushed only by the bus
// events, by the completion that unstalls a core and once at the end of the
// run.
func replayStalls(l *Ledger, perEdge bool, episodes []stallEpisode, events map[uint64][]event.Record, last uint64) {
	for now := uint64(0); now <= last; now++ {
		for _, ep := range episodes {
			switch {
			case now%ep.div != 0:
			case now == ep.stallAt:
				l.Stall(ep.core, ep.class, now, ep.div)
			case perEdge && now > ep.stallAt && (ep.unstallAt == 0 || now <= ep.unstallAt):
				l.HandleEvent(&event.Record{Cycle: now, Kind: event.StateChange, Core: ep.core})
			}
		}
		for _, r := range events[now] {
			r.Cycle = now
			l.HandleEvent(&r)
		}
		for _, ep := range episodes {
			if ep.unstallAt != 0 && now == ep.unstallAt {
				l.Unstall(ep.core, now)
			}
		}
	}
	l.Finish(last)
}

// TestSpansIndependentOfFlushCadence feeds one event and edge sequence to two
// ledgers, one flushed at every stalled edge and one flushed only at bus
// events, and requires the same spans in the same order and the same counts.  Core
// 0's arbitration span ends at cycle 6 but, flushed only at events, is found
// only at its completion at cycle 9; core 1's first span ends at cycle 4 and
// is found at cycle 10, after two of core 0's later closes.  With room for
// three spans, that late find displaces core 0's refill span.
func TestSpansIndependentOfFlushCadence(t *testing.T) {
	episodes := []stallEpisode{
		{core: 0, div: 1, class: ClassAccess, stallAt: 0, unstallAt: 9},
		{core: 0, div: 1, class: ClassLock, stallAt: 12},
		{core: 1, div: 2, class: ClassAccess, stallAt: 0, unstallAt: 14},
	}
	rec := func(kind event.Kind, core int) event.Record {
		return event.Record{Kind: kind, Core: core, BusKind: uint8(bus.ReadLine)}
	}
	events := map[uint64][]event.Record{
		1:  {rec(event.BusRequest, 0)},
		2:  {rec(event.BusRequest, 1)},
		5:  {rec(event.BusGrant, 0)},
		9:  {rec(event.BusComplete, 0)},
		10: {rec(event.BusGrant, 1)},
		14: {rec(event.BusComplete, 1)},
	}
	want := []Span{
		{Core: 0, Cause: CauseOther, Start: 1, End: 2},
		{Core: 1, Cause: CauseOther, Start: 2, End: 3},
		{Core: 0, Cause: CauseArb, Start: 2, End: 6},
		{Core: 0, Cause: CauseRefill, Start: 6, End: 10},
		{Core: 1, Cause: CauseArb, Start: 4, End: 11},
		{Core: 1, Cause: CauseRefill, Start: 12, End: 15},
		{Core: 0, Cause: CauseLock, Start: 13, End: 19},
	}
	for _, maxSpans := range []int{DefaultMaxSpans, 3} {
		var ledgers [2]*Ledger
		for i, perEdge := range []bool{true, false} {
			ledgers[i] = NewLedger(2)
			ledgers[i].maxSpans = maxSpans
			replayStalls(ledgers[i], perEdge, episodes, events, 18)
		}
		tick, pull := ledgers[0], ledgers[1]
		keep := min(maxSpans, len(want))
		for name, l := range map[string]*Ledger{"per-edge": tick, "event-only": pull} {
			got := l.Spans()
			if len(got) != keep {
				t.Fatalf("max %d, %s flushes: %d spans %+v, want %+v", maxSpans, name, len(got), got, want[:keep])
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("max %d, %s flushes: span %d = %+v, want %+v", maxSpans, name, i, got[i], want[i])
				}
			}
			if d := l.Summary().DroppedSpans; d != uint64(len(want)-keep) {
				t.Errorf("max %d, %s flushes: %d spans dropped, want %d", maxSpans, name, d, len(want)-keep)
			}
		}
		for core := 0; core < 2; core++ {
			for _, c := range Causes() {
				if a, b := tick.Count(core, c), pull.Count(core, c); a != b {
					t.Errorf("core %d %v: per-edge %d, event-only %d", core, c, a, b)
				}
			}
		}
	}
}
