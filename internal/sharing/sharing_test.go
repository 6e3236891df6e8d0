package sharing

import (
	"strings"
	"testing"

	"hetcc/internal/bus"
	"hetcc/internal/coherence"
	"hetcc/internal/event"
)

// Event constructors for hand-built streams.  Cycle stamping is the caller's
// business (the collector only uses it for heat-window bucketing).

func grant(cycle uint64, core int, addr uint32, k bus.Kind) event.Record {
	return event.Record{Cycle: cycle, Kind: event.BusGrant, Core: core, Addr: addr, BusKind: uint8(k)}
}

func mem(cycle uint64, core int, addr uint32, write bool) event.Record {
	return event.Record{Cycle: cycle, Kind: event.MemAccess, Core: core, Addr: addr, Write: write}
}

// snoop builds a SnoopHit: core is the snooper, peer the requester.
func snoop(cycle uint64, core int, addr uint32, peer int, inval, supply, flush, converted bool) event.Record {
	return event.Record{Cycle: cycle, Kind: event.SnoopHit, Core: core, Addr: addr, Peer: peer,
		Inval: inval, Supply: supply, Flush: flush, Converted: converted}
}

func change(cycle uint64, core int, addr uint32, old, new coherence.State) event.Record {
	return event.Record{Cycle: cycle, Kind: event.StateChange, Core: core, Addr: addr, Old: old, New: new}
}

func feed(c *Collector, recs []event.Record) {
	for i := range recs {
		c.HandleEvent(&recs[i])
	}
}

// TestClassification drives the per-line state machine with hand-built event
// sequences, one per lifetime class, including the false-sharing and
// wrapper-converted producer-consumer vectors.
func TestClassification(t *testing.T) {
	const base = 0x2000_0040
	cases := []struct {
		name       string
		recs       []event.Record
		class      Class
		falseShare bool
	}{
		{
			// One master does everything.
			name: "private",
			recs: []event.Record{
				grant(1, 0, base, bus.ReadLine),
				mem(1, 0, base, false),
				change(2, 0, base, coherence.Exclusive, coherence.Modified),
				grant(3, 0, base, bus.WriteLine), // write-back: traffic only
			},
			class: ClassPrivate,
		},
		{
			// Two masters fill the line, nobody ever dirties it.
			name: "read-only",
			recs: []event.Record{
				grant(1, 0, base, bus.ReadLine),
				mem(1, 0, base, false),
				grant(2, 1, base, bus.ReadLine),
				mem(2, 1, base+4, false),
			},
			class: ClassReadOnly,
		},
		{
			// Master 0 writes, master 1 only reads.
			name: "producer-consumer",
			recs: []event.Record{
				grant(1, 0, base, bus.ReadLineOwn),
				mem(1, 0, base, true),
				grant(2, 1, base, bus.ReadLine),
				mem(2, 1, base, false),
			},
			class: ClassProducerConsumer,
		},
		{
			// Same pattern through a wrapper: the consumer's fill is snooped
			// with the converted flag (the paper's read-to-write conversion),
			// which must not disturb the classification.
			name: "producer-consumer converted",
			recs: []event.Record{
				grant(1, 0, base, bus.ReadLineOwn),
				mem(1, 0, base, true),
				grant(2, 1, base, bus.ReadLine),
				mem(2, 1, base, false),
				snoop(2, 0, base, 1, true, false, true, true),
			},
			class: ClassProducerConsumer,
		},
		{
			// Read-modify-migrate: each new writer read the line first.
			name: "migratory",
			recs: []event.Record{
				grant(1, 0, base, bus.ReadLine),
				mem(1, 0, base, false),
				change(2, 0, base, coherence.Exclusive, coherence.Modified),
				grant(3, 1, base, bus.ReadLine),
				mem(3, 1, base, false),
				change(4, 1, base, coherence.Exclusive, coherence.Modified),
				grant(5, 0, base, bus.ReadLine),
				mem(5, 0, base, false),
				change(6, 0, base, coherence.Exclusive, coherence.Modified),
			},
			class: ClassMigratory,
		},
		{
			// Two writers with no read before the hand-off: general
			// read-write sharing, not migratory.
			name: "read-write",
			recs: []event.Record{
				grant(1, 0, base, bus.ReadLineOwn),
				mem(1, 0, base, true),
				grant(2, 1, base, bus.ReadLineOwn),
				mem(2, 1, base, true),
				grant(3, 0, base, bus.ReadLine),
				mem(3, 0, base, false),
			},
			class: ClassReadWrite,
		},
		{
			// Disjoint word sets: coherence traffic with no word actually
			// communicated.
			name: "false sharing",
			recs: []event.Record{
				grant(1, 0, base, bus.ReadLineOwn),
				mem(1, 0, base, true), // word 0
				grant(2, 1, base, bus.ReadLineOwn),
				mem(2, 1, base+4, true), // word 1
			},
			class:      ClassReadWrite,
			falseShare: true,
		},
		{
			// Overlapping word sets: true sharing, not flagged.
			name: "true sharing not flagged",
			recs: []event.Record{
				grant(1, 0, base, bus.ReadLineOwn),
				mem(1, 0, base, true),
				grant(2, 1, base, bus.ReadLineOwn),
				mem(2, 1, base, true),
			},
			class: ClassReadWrite,
		},
		{
			// Word-grain uncached traffic classifies too (lock words).
			name: "uncached rmw",
			recs: []event.Record{
				grant(1, 0, base, bus.RMWWord),
				grant(2, 1, base, bus.RMWWord),
			},
			class: ClassReadWrite,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector(Config{Masters: 2, LineBytes: 32})
			feed(c, tc.recs)
			c.Finish()
			s := c.Summary()
			if bad := s.Conserved(); bad != "" {
				t.Fatalf("conservation violated: %s", bad)
			}
			var got *LineSummary
			for i := range s.Lines {
				if s.Lines[i].Base == "0x20000040" {
					got = &s.Lines[i]
				}
			}
			if got == nil {
				t.Fatalf("line not tracked; summary has %d lines", len(s.Lines))
			}
			if got.Class != tc.class.String() {
				t.Errorf("class = %s, want %s (readers %d, writers %d)",
					got.Class, tc.class, got.Readers, got.Writers)
			}
			if got.FalseSharing != tc.falseShare {
				t.Errorf("false_sharing = %v, want %v", got.FalseSharing, tc.falseShare)
			}
			classed := 0
			for _, cnt := range s.ClassCounts {
				classed += cnt
			}
			if classed != len(s.Lines) {
				t.Errorf("class counts cover %d of %d lines", classed, len(s.Lines))
			}
		})
	}
}

// TestMatrixOrientation pins the communication-matrix edge directions:
// supplies and drains flow snooper→requester, invalidations and conversions
// requester→snooper.
func TestMatrixOrientation(t *testing.T) {
	const base = 0x2000_0080
	c := NewCollector(Config{Masters: 3, LineBytes: 32})
	recs := []event.Record{
		grant(1, 1, base, bus.ReadLine),
		snoop(1, 0, base, 1, false, true, false, false), // 0 supplies to 1
		snoop(2, 2, base, 1, false, false, true, false), // 2 drains for 1
		snoop(3, 0, base, 1, true, false, false, true),  // 1 invalidates 0, converted
	}
	feed(c, recs)
	c.Finish()
	s := c.Summary()
	if bad := s.Conserved(); bad != "" {
		t.Fatalf("conservation violated: %s", bad)
	}
	find := func(from, to int) Cell {
		for _, m := range s.Matrix {
			if m.From == from && m.To == to {
				return m.Cell
			}
		}
		return Cell{}
	}
	if got := find(0, 1); got.Supplies != 1 {
		t.Errorf("supply edge 0→1 = %+v, want 1 supply", got)
	}
	if got := find(2, 1); got.Drains != 1 {
		t.Errorf("drain edge 2→1 = %+v, want 1 drain", got)
	}
	if got := find(1, 0); got.Invalidations != 1 || got.Converted != 1 {
		t.Errorf("invalidation edge 1→0 = %+v, want 1 invalidation + 1 converted", got)
	}
}

// TestSharedOverrideAttribution: overrides latch onto the master's last
// completed line; an override before any completion counts as unattributed
// (and still conserves).
func TestSharedOverrideAttribution(t *testing.T) {
	const base = 0x2000_00c0
	c := NewCollector(Config{Masters: 2, LineBytes: 32})
	recs := []event.Record{
		{Cycle: 1, Kind: event.SharedOverride, Core: 0}, // before any complete
		grant(2, 0, base, bus.ReadLine),
		{Cycle: 3, Kind: event.BusComplete, Core: 0, Addr: base + 8},
		{Cycle: 3, Kind: event.SharedOverride, Core: 0},
	}
	feed(c, recs)
	c.Finish()
	s := c.Summary()
	if bad := s.Conserved(); bad != "" {
		t.Fatalf("conservation violated: %s", bad)
	}
	if s.Totals.SharedOverrides != 2 || s.Totals.UnattributedOverrides != 1 {
		t.Fatalf("totals = %+v, want 2 overrides with 1 unattributed", s.Totals)
	}
	if len(s.Lines) != 1 || s.Lines[0].Traffic.SharedOverrides != 1 {
		t.Fatalf("line attribution wrong: %+v", s.Lines)
	}
}

// TestHeatmapRetention: windows seal on bucket crossings, retention keeps the
// newest MaxWindows, and evicted accesses stay conserved.
func TestHeatmapRetention(t *testing.T) {
	c := NewCollector(Config{Masters: 1, LineBytes: 32, Window: 100, MaxWindows: 2})
	var recs []event.Record
	for w := uint64(0); w < 4; w++ {
		for i := uint32(0); i < 3; i++ {
			recs = append(recs, grant(w*100+uint64(i), 0, 0x1000+i*0x2000, bus.ReadWord))
		}
	}
	feed(c, recs)
	c.Finish()
	s := c.Summary()
	if bad := s.Conserved(); bad != "" {
		t.Fatalf("conservation violated: %s", bad)
	}
	h := s.Heatmap
	if h.Window != 100 || len(h.Windows) != 2 {
		t.Fatalf("retained %d windows of width %d, want 2 of 100", len(h.Windows), h.Window)
	}
	if h.Windows[0].Start != 200 || h.Windows[1].Start != 300 {
		t.Fatalf("retained windows start at %d, %d; want 200, 300", h.Windows[0].Start, h.Windows[1].Start)
	}
	if h.DroppedWindows != 2 || h.DroppedAccesses != 6 {
		t.Fatalf("dropped %d windows / %d accesses, want 2 / 6", h.DroppedWindows, h.DroppedAccesses)
	}
	for _, w := range h.Windows {
		if w.Total != 3 || len(w.Regions) != 3 {
			t.Fatalf("window @%d: total %d over %d regions, want 3 over 3", w.Start, w.Total, len(w.Regions))
		}
	}
}

// TestLineBound: lines beyond MaxLines aggregate into the overflow bucket
// and grant counts still conserve.
func TestLineBound(t *testing.T) {
	c := NewCollector(Config{Masters: 1, LineBytes: 32, MaxLines: 2})
	var recs []event.Record
	for i := uint32(0); i < 5; i++ {
		recs = append(recs, grant(uint64(i), 0, 0x1000+i*32, bus.ReadLine))
	}
	feed(c, recs)
	c.Finish()
	s := c.Summary()
	if bad := s.Conserved(); bad != "" {
		t.Fatalf("conservation violated: %s", bad)
	}
	if len(s.Lines) != 2 {
		t.Fatalf("tracked %d lines, want 2", len(s.Lines))
	}
	if s.OverflowTraffic == nil || s.OverflowTraffic.Misses != 3 {
		t.Fatalf("overflow bucket = %+v, want 3 misses", s.OverflowTraffic)
	}
	if s.Totals.Grants != 5 {
		t.Fatalf("grants = %d, want 5", s.Totals.Grants)
	}
}

// TestNilSafety: the nil collector and the nil summary are inert.
func TestNilSafety(t *testing.T) {
	var c *Collector
	r := grant(1, 0, 0x40, bus.ReadLine)
	c.HandleEvent(&r)
	c.Finish()
	if c.Summary() != nil {
		t.Error("nil collector produced a summary")
	}
	var s *Summary
	if err := s.WriteJSONL(nil); err != nil {
		t.Errorf("nil summary WriteJSONL: %v", err)
	}
	if s.HotLines(5) != nil {
		t.Error("nil summary has hot lines")
	}
}

// TestHotLinesAndJSONL: hot-line ordering is by grant count with address
// tie-break, and the JSONL export carries a row per line/cell/window plus
// the final totals row.
func TestHotLinesAndJSONL(t *testing.T) {
	c := NewCollector(Config{Masters: 2, LineBytes: 32})
	recs := []event.Record{
		grant(1, 0, 0x1000, bus.ReadLine),
		grant(2, 0, 0x1020, bus.ReadLine),
		grant(3, 1, 0x1020, bus.ReadLine),
		snoop(3, 0, 0x1020, 1, false, true, false, false),
	}
	feed(c, recs)
	c.Finish()
	s := c.Summary()
	hot := s.HotLines(10)
	if len(hot) != 2 || s.Lines[hot[0]].Base != "0x00001020" {
		t.Fatalf("hot lines = %v (%+v)", hot, s.Lines)
	}
	var sb strings.Builder
	if err := s.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	rows := strings.Count(out, "\n")
	if want := len(s.Lines) + len(s.Matrix) + len(s.Heatmap.Windows) + 1; rows != want {
		t.Fatalf("JSONL has %d rows, want %d:\n%s", rows, want, out)
	}
	if !strings.Contains(out, `"row":"totals"`) {
		t.Fatalf("JSONL missing totals row:\n%s", out)
	}
}
