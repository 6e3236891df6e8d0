package profile

import (
	"testing"

	"hetcc/internal/bus"
	"hetcc/internal/event"
)

// TestAllocsLedger: a warmed ledger marks a line lost to a converted
// invalidation, consumes the mark at the core's refill request and
// attributes that miss's stalled cycles through the bus phases, without
// per-stall garbage (`make allocs`).  The span list grows by doubling, so
// its few growth allocations amortise to 0 over the runs.
func TestAllocsLedger(t *testing.T) {
	l := NewLedger(2)
	var now uint64
	var i uint32
	emit := func(kind event.Kind, core int, addr uint32, busKind bus.Kind) {
		r := event.Record{Cycle: now, Kind: kind, Core: core, Addr: addr, BusKind: uint8(busKind), Inval: true, Converted: true}
		l.HandleEvent(&r)
	}
	life := func() {
		i++
		line := 0x2000_0000 + 32*(i%4)
		emit(event.SnoopHit, 0, line, 0)
		emit(event.BusRequest, 0, line, bus.ReadLine)
		l.Stall(0, ClassAccess, now, 1)
		now += 2
		emit(event.BusGrant, 0, line, bus.ReadLine)
		now += 2
		emit(event.BusComplete, 0, line, bus.ReadLine)
		l.Unstall(0, now)
		now++
	}
	for j := 0; j < 16; j++ {
		life()
	}
	if n := testing.AllocsPerRun(1000, life); n != 0 {
		t.Fatalf("ledger allocates %.1f/op, want 0", n)
	}
	if got, want := l.Count(0, CauseInval), 4*uint64(i); got != want || l.Total(0) != want {
		t.Fatalf("inval-remiss %d of %d stalled cycles, want all %d", got, l.Total(0), want)
	}
}
