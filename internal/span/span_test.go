package span

import (
	"strings"
	"testing"

	"hetcc/internal/bus"
	"hetcc/internal/event"
	"hetcc/internal/profile"
)

// feed drives a collector through a synthetic event sequence using a real
// sink so cycle stamping matches production.
type feed struct {
	sink  *event.Sink
	cycle uint64
}

func newFeed(c *Collector) *feed {
	f := &feed{}
	f.sink = event.NewSink(func() uint64 { return f.cycle })
	f.sink.Subscribe(c.HandleEvent)
	return f
}

func (f *feed) at(cycle uint64) *feed { f.cycle = cycle; return f }

// TestNilCollectorIsSafe: the disabled path must be a no-op, never a panic.
func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.HandleEvent(&event.Record{Kind: event.BusRequest, Txn: 1})
	c.Finish(nil, 100)
	if c.Enabled() || c.Txns() != nil || c.Links() != nil || c.Edges() != nil || c.Dropped() != 0 {
		t.Fatal("nil collector misbehaves")
	}
	if err := c.WriteJSONL(&strings.Builder{}, nil); err != nil {
		t.Fatal(err)
	}
	if cp := Compute(c, 100, []CoreInfo{{Name: "core0", ClockDiv: 1}}, nil, nil, nil, 5); cp == nil {
		t.Fatal("Compute must work on a nil collector")
	} else if cp.CyclesAttributed() != 100 || cp.CrossCheckError != "" {
		t.Fatalf("nil-collector critical path broken: %+v", cp)
	}
}

// TestLifecycleAndRetryDrainEdge walks one transaction through submit,
// drain-retry (flush submitted after the ARTRY, the snoop-push ordering),
// grant and completion, checking the causal edge resolves to the write-back.
func TestLifecycleAndRetryDrainEdge(t *testing.T) {
	c := NewCollector(32)
	f := newFeed(c)

	rd := uint8(bus.ReadLine)
	wb := uint8(bus.WriteLine)
	f.at(10).sink.BusRequest(0, rd, 0x2000_0000, 1)
	// ARTRY with drain: the remote owner must flush first.  The flush is
	// submitted only after the abort, so resolution is deferred.
	f.at(14).sink.Retry(0, rd, 0x2000_0000, 1, true, 1)
	f.at(16).sink.BusRequest(1, wb, 0x2000_0000, 2)
	f.at(20).sink.BusGrant(1, wb, 0x2000_0000, false, 2, 0, 0)
	f.at(30).sink.BusComplete(1, wb, 0x2000_0000, 2, 0, 0)
	f.at(30).sink.Drain(1, 0x2000_0000, 2)
	f.at(34).sink.BusGrant(0, rd, 0x2000_0000, true, 1, 0, 0)
	f.at(50).sink.BusComplete(0, rd, 0x2000_0000, 1, 0, 0)

	txns := c.Txns()
	if len(txns) != 2 {
		t.Fatalf("recorded %d txns, want 2", len(txns))
	}
	got := txns[0]
	if got.Submit != 10 || got.Grant != 34 || got.Complete != 50 || !got.Done {
		t.Fatalf("lifecycle %+v wrong", got)
	}
	if len(got.Retries) != 1 || !got.Retries[0].Drain || got.Retries[0].Cause != 2 {
		t.Fatalf("retry epoch %+v: want one drain retry caused by txn 2", got.Retries)
	}

	c.Finish(nil, 60)
	edges := c.Edges()
	if len(edges) != 1 {
		t.Fatalf("%d edges, want 1 retry-drain", len(edges))
	}
	e := edges[0]
	if e.Kind != EdgeRetryDrain || e.Txn != 1 || e.Cause != 2 || e.From != 14 || e.To != 30 ||
		e.FromMaster != 0 || e.ToMaster != 1 {
		t.Fatalf("edge %+v wrong", e)
	}
}

// TestRetryResolvesAgainstQueuedWriteBack: when the draining write-back is
// already queued at ARTRY time (eviction in flight), the edge resolves
// immediately from the open write-back table.
func TestRetryResolvesAgainstQueuedWriteBack(t *testing.T) {
	c := NewCollector(32)
	f := newFeed(c)
	wb := uint8(bus.WriteLine)
	rd := uint8(bus.ReadLine)
	f.at(5).sink.BusRequest(1, wb, 0x2000_0040, 1)
	f.at(6).sink.BusRequest(0, rd, 0x2000_0040, 2)
	f.at(8).sink.Retry(0, rd, 0x2000_0040, 1, true, 2)
	if got := c.Txns()[1].Retries[0].Cause; got != 1 {
		t.Fatalf("immediate resolution gave cause %d, want 1", got)
	}
}

// TestWordRetryMasksToLineBase: a drain-retried word access links to the
// write-back of the containing line.
func TestWordRetryMasksToLineBase(t *testing.T) {
	c := NewCollector(32)
	f := newFeed(c)
	f.at(5).sink.BusRequest(1, uint8(bus.WriteLine), 0x2000_0040, 1)
	f.at(6).sink.BusRequest(0, uint8(bus.ReadWord), 0x2000_005c, 2)
	f.at(8).sink.Retry(0, uint8(bus.ReadWord), 0x2000_005c, 1, true, 2)
	if got := c.Txns()[1].Retries[0].Cause; got != 1 {
		t.Fatalf("word retry resolved to cause %d, want 1 (line base masking)", got)
	}
}

// TestFinishLinksStallSpans: each stall span links to the same-master
// transaction with the largest overlap, and complete→resume edges appear
// when the blocking transaction completes inside the span.
func TestFinishLinksStallSpans(t *testing.T) {
	c := NewCollector(32)
	f := newFeed(c)
	rd := uint8(bus.ReadLine)
	f.at(10).sink.BusRequest(0, rd, 0x2000_0000, 1)
	f.at(30).sink.BusComplete(0, rd, 0x2000_0000, 1, 0, 0)
	f.at(40).sink.BusRequest(0, rd, 0x2000_0020, 2)
	f.at(70).sink.BusComplete(0, rd, 0x2000_0020, 2, 0, 0)

	stalls := []profile.Span{
		{Core: 0, Cause: profile.CauseRefill, Start: 12, End: 31},
		{Core: 0, Cause: profile.CauseLock, Start: 33, End: 38}, // no txn outstanding
		{Core: 0, Cause: profile.CauseRefill, Start: 41, End: 71},
	}
	c.Finish(stalls, 100)
	links := c.Links()
	if len(links) != 3 {
		t.Fatalf("%d links, want 3", len(links))
	}
	if links[0].Txn != 1 || links[1].Txn != 0 || links[2].Txn != 2 {
		t.Fatalf("links %+v: want txn 1, none, 2", links)
	}
	var resumes int
	for _, e := range c.Edges() {
		if e.Kind == EdgeCompleteResume {
			resumes++
			if e.From != c.Txns()[e.Txn-1].Complete || e.To < e.From {
				t.Fatalf("resume edge %+v inconsistent", e)
			}
		}
	}
	if resumes != 2 {
		t.Fatalf("%d complete-resume edges, want 2", resumes)
	}
}

// TestCriticalPathConservation: the attribution partitions the anchor core's
// timeline exactly, charging remote drains to the draining master.
func TestCriticalPathConservation(t *testing.T) {
	c := NewCollector(32)
	f := newFeed(c)
	rd := uint8(bus.ReadLine)
	wb := uint8(bus.WriteLine)
	f.at(10).sink.BusRequest(0, rd, 0x2000_0000, 1)
	f.at(14).sink.Retry(0, rd, 0x2000_0000, 1, true, 1)
	f.at(16).sink.BusRequest(1, wb, 0x2000_0000, 2)
	f.at(30).sink.BusComplete(1, wb, 0x2000_0000, 2, 0, 0)
	f.at(30).sink.Drain(1, 0x2000_0000, 2)
	f.at(50).sink.BusComplete(0, rd, 0x2000_0000, 1, 0, 0)

	stalls := []profile.Span{
		{Core: 0, Cause: profile.CauseDrain, Start: 14, End: 31},
		{Core: 0, Cause: profile.CauseRefill, Start: 31, End: 51},
	}
	c.Finish(stalls, 100)
	cores := []CoreInfo{
		{Name: "ppc", ClockDiv: 1, Halted: true, HaltCycle: 90},
		{Name: "arm", ClockDiv: 2, Halted: true, HaltCycle: 60},
	}
	ledger := &profile.Summary{Cores: []profile.CoreSummary{
		{Core: 0, Causes: map[string]uint64{"drain": 17, "refill": 20}},
	}}
	cp := Compute(c, 100, cores, ledger, func(id int) string {
		return []string{"ppc", "arm"}[id]
	}, nil, 5)
	if cp.Core != 0 || cp.CoreName != "ppc" {
		t.Fatalf("anchor %d/%s, want 0/ppc (last halting)", cp.Core, cp.CoreName)
	}
	if cp.CrossCheckError != "" {
		t.Fatalf("cross-check failed: %s", cp.CrossCheckError)
	}
	if got := cp.CyclesAttributed(); got != 100 {
		t.Fatalf("attributed %d cycles, want 100", got)
	}
	byKey := map[string]uint64{}
	for _, a := range cp.Attribution {
		byKey[a.Component+"/"+a.Cause] = a.Cycles
	}
	if byKey["arm/drain"] != 17 {
		t.Fatalf("drain not charged to the draining master: %v", byKey)
	}
	if byKey["ppc/refill"] != 20 || byKey["ppc/execute"] != 63 {
		t.Fatalf("attribution %v wrong", byKey)
	}
	if len(cp.TopTransactions) == 0 || cp.TopTransactions[0].Txn != 1 {
		t.Fatalf("top transactions %+v: want txn 1 first", cp.TopTransactions)
	}
}

// TestCrossCheckCatchesOverAttribution: a ledger bound below the attributed
// cycles must be reported, not silently accepted.
func TestCrossCheckCatchesOverAttribution(t *testing.T) {
	c := NewCollector(32)
	c.Finish([]profile.Span{{Core: 0, Cause: profile.CauseRefill, Start: 0, End: 50}}, 100)
	ledger := &profile.Summary{Cores: []profile.CoreSummary{
		{Core: 0, Causes: map[string]uint64{"refill": 10}},
	}}
	cp := Compute(c, 100, []CoreInfo{{Name: "c0", ClockDiv: 1}}, ledger, nil, nil, 5)
	if cp.CrossCheckError == "" {
		t.Fatal("cross-check passed despite attribution exceeding the ledger bound")
	}
}

// TestJSONLExport checks the export carries both row kinds with causal
// fields.
func TestJSONLExport(t *testing.T) {
	c := NewCollector(32)
	f := newFeed(c)
	f.at(10).sink.BusRequest(0, uint8(bus.ReadLine), 0x2000_0000, 1)
	f.at(14).sink.Retry(0, uint8(bus.ReadLine), 0x2000_0000, 1, true, 1)
	f.at(16).sink.BusRequest(1, uint8(bus.WriteLine), 0x2000_0000, 2)
	f.at(30).sink.BusComplete(0, uint8(bus.ReadLine), 0x2000_0000, 1, 0, 0)
	c.Finish([]profile.Span{{Core: 0, Cause: profile.CauseDrain, Start: 14, End: 30}}, 40)

	var sb strings.Builder
	if err := c.WriteJSONL(&sb, func(k uint8) string { return bus.Kind(k).String() }); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"row":"txn","txn":1`,
		`"retries":[{"cycle":14,"drain":true,"cause":2}]`,
		`"row":"stall","core":0,"cause":"drain","start":14,"end":30,"txn":1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

// TestRetentionBound: transactions beyond the bound are counted as dropped
// and later lifecycle events for them are ignored without corrupting the
// dense id→index mapping.
func TestRetentionBound(t *testing.T) {
	c := NewCollector(32)
	c.maxTxns = 2
	f := newFeed(c)
	for i := uint64(1); i <= 4; i++ {
		f.at(i).sink.BusRequest(0, uint8(bus.ReadLine), uint32(0x2000_0000+32*i), i)
	}
	f.at(9).sink.BusComplete(0, uint8(bus.ReadLine), 0x2000_0060, 3, 0, 0)
	if len(c.Txns()) != 2 || c.Dropped() != 2 {
		t.Fatalf("kept %d dropped %d, want 2/2", len(c.Txns()), c.Dropped())
	}
}
