package trace

import (
	"testing"

	"hetcc/internal/event"
)

// TestAllocsTrace: once the ring is full, a traced record costs no
// allocation, since the log keeps it by value and formats it only when read.
// `make allocs` and the CI allocs job pin this.
func TestAllocsTrace(t *testing.T) {
	l := NewLog(4, nil, formatAddr)
	s := event.NewSink(nil)
	s.Subscribe(l.Record)
	emit := func() {
		s.BusGrant(1, 0, 0x40, true, 1, 0, 0)
		s.Retry(1, 0, 0x40, 3, true, 1)
		s.BusComplete(1, 0, 0x40, 1, 0, 0, 0)
	}
	emit()
	emit() // the ring is full
	if n := testing.AllocsPerRun(1000, emit); n != 0 {
		t.Fatalf("traced records allocate %.1f/op, want 0", n)
	}
	if l.Len() != 4 || l.Dropped() == 0 {
		t.Fatalf("len %d, dropped %d: the ring never wrapped", l.Len(), l.Dropped())
	}
}
