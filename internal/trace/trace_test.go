package trace

import (
	"strings"
	"testing"
)

// clockLog returns a log bounded to max events whose clock reads *now.
func clockLog(max int) (*Log, *uint64) {
	now := new(uint64)
	return NewLog(max, func() uint64 { return *now }), now
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Addf("unit", "message %d", 1)
	if l.Len() != 0 || l.Dropped() != 0 {
		t.Fatal("nil log misbehaves")
	}
	if evs, dropped := l.Events(); evs != nil || dropped != 0 {
		t.Fatal("nil log returns events")
	}
	if n, err := l.WriteTo(&strings.Builder{}); n != 0 || err != nil {
		t.Fatal("nil WriteTo")
	}
}

func TestAddAndEvents(t *testing.T) {
	l, now := clockLog(10)
	*now = 5
	l.Addf("bus", "grant %s", "m0")
	*now = 6
	l.Addf("bus", "done")
	evs, dropped := l.Events()
	if len(evs) != 2 || evs[0].Cycle != 5 || evs[0].Unit != "bus" || evs[0].Msg != "grant m0" {
		t.Fatalf("events %v", evs)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d, want 0", dropped)
	}
}

func TestRingBound(t *testing.T) {
	l, _ := clockLog(3)
	for i := 0; i < 10; i++ {
		l.Addf("u", "e%d", i)
	}
	if l.Len() != 3 {
		t.Fatalf("len %d, want 3", l.Len())
	}
	if l.Dropped() != 7 {
		t.Fatalf("dropped %d, want 7", l.Dropped())
	}
	evs, dropped := l.Events()
	if evs[0].Msg != "e7" || evs[2].Msg != "e9" {
		t.Fatalf("kept %v, want the newest three", evs)
	}
	if dropped != 7 {
		t.Fatalf("snapshot dropped %d, want 7", dropped)
	}
}

func TestUnboundedLog(t *testing.T) {
	l, _ := clockLog(0)
	for i := 0; i < 100; i++ {
		l.Addf("u", "e")
	}
	if l.Len() != 100 || l.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", l.Len(), l.Dropped())
	}
}

func TestWriteTo(t *testing.T) {
	l, now := clockLog(0)
	*now = 42
	l.Addf("cache", "fill 0x100")
	var sb strings.Builder
	if _, err := l.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "42") || !strings.Contains(out, "cache") || !strings.Contains(out, "fill 0x100") {
		t.Fatalf("output %q", out)
	}
}

func TestRingMultipleWraps(t *testing.T) {
	l, now := clockLog(4)
	for i := 0; i < 103; i++ { // 103 % 4 != 0, so head ends mid-ring
		*now = uint64(i)
		l.Addf("u", "e%d", i)
	}
	evs, _ := l.Events()
	if len(evs) != 4 {
		t.Fatalf("len %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(99 + i); e.Cycle != want {
			t.Fatalf("event %d has cycle %d, want %d (oldest-first order broken)", i, e.Cycle, want)
		}
	}
	if l.Dropped() != 99 {
		t.Fatalf("dropped %d, want 99", l.Dropped())
	}
}

func TestEventString(t *testing.T) {
	e := Event{Cycle: 7, Unit: "bus", Msg: "x"}
	if s := e.String(); !strings.Contains(s, "7") || !strings.Contains(s, "bus") {
		t.Fatalf("event string %q", s)
	}
}
