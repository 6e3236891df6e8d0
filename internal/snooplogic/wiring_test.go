package snooplogic

import (
	"sort"
	"testing"

	"hetcc/internal/bus"
	"hetcc/internal/event"
	"hetcc/internal/memory"
)

// TestPostConstructionWiring exercises the platform's wiring order: the FIQ
// target and event sink are both attached after New (the CPU does not exist
// yet when the snoop logic is built), and a foreign hit must reach both.
// The ISR's completion record carries the measured drain latency and the
// residency the metrics and trace subscribers report.
func TestPostConstructionWiring(t *testing.T) {
	mem := memory.New()
	b := bus.New(bus.Config{Timing: memory.DefaultTiming()}, mem)
	owner := b.AddMaster("arm")
	other := b.AddMaster("ppc")
	sl := New(b, owner, 32, nil)

	cpu := &fakeCPU{}
	sl.SetFIQRaiser(cpu)
	sink := event.NewSink(nil)
	var drains []event.Record
	var snoopHits int
	sink.Subscribe(func(r *event.Record) {
		switch r.Kind {
		case event.Drain:
			drains = append(drains, *r)
		case event.SnoopHit:
			snoopHits++
		}
	})
	sl.SetEvents(sink)

	bn := &bench{bus: b, sl: sl, cpu: cpu, owner: owner, other: other}
	bn.fill(t, 0x1000)
	// The foreign read keeps retrying until the ISR drains the line, so tick
	// a bounded window instead of draining.
	bn.bus.Submit(&bus.Transaction{Master: bn.other, Kind: bus.ReadLine, Addr: 0x1000, Words: 8}, nil)
	for i := 0; i < 50; i++ {
		bn.bus.Tick(bn.now)
		bn.now++
	}
	hitWindow := b.Cycle()
	bn.sl.Complete(0x1000, true)
	bn.drain(t)

	if len(cpu.fiqs) != 1 || cpu.fiqs[0] != 0x1000 {
		t.Fatalf("fiqs %v, want one at 0x1000 via the installed raiser", cpu.fiqs)
	}
	if got := sl.Stats().Hits; got != 1 {
		t.Fatalf("stats hits %d, want 1", got)
	}
	if snoopHits != 1 {
		t.Fatalf("%d snoop-hit records, want one", snoopHits)
	}
	if len(drains) != 1 || drains[0].Txn != 0 || !drains[0].Resident || drains[0].Wait == 0 || drains[0].Wait >= hitWindow {
		t.Fatalf("drain records %+v, want one Txn-0 resident drain whose wait lies inside the %d-cycle window", drains, hitWindow)
	}
}

// TestCAMLinesSorted pins the deterministic CAM listing (the TAG-CAM mirror
// property in the explorer relies on it).
func TestCAMLinesSorted(t *testing.T) {
	bn := newBench(t)
	for _, addr := range []uint32{0x2040, 0x1000, 0x3000, 0x1020} {
		bn.fill(t, addr)
	}
	lines := bn.sl.CAMLines()
	if len(lines) != 4 || !sort.SliceIsSorted(lines, func(i, j int) bool { return lines[i] < lines[j] }) {
		t.Fatalf("CAMLines %v, want 4 sorted tags", lines)
	}
}

// TestEventNamesAreDistinct pins the transition-table event labels: every
// event renders a unique, non-placeholder name (they appear in test failures
// and the table docs).
func TestEventNamesAreDistinct(t *testing.T) {
	events := []Event{EvOwnFill, EvOwnWriteBack, EvForeignMatch, EvISRComplete, EvNoteInvalidate}
	seen := make(map[string]bool)
	for _, ev := range events {
		name := ev.String()
		if name == "" || seen[name] {
			t.Fatalf("event %d renders %q (empty or duplicate)", ev, name)
		}
		seen[name] = true
	}
	if got := Event(99).String(); got == "" || seen[got] {
		t.Fatalf("out-of-range event renders %q", got)
	}
}
