package event

import "testing"

// The emit helpers sit on every coherence action, so both the disabled
// (nil sink) and enabled paths must be allocation-free; `make allocs` and
// the CI allocs job pin this.

// TestAllocsEmitDisabled: a nil *Sink costs one branch and zero garbage —
// the helpers must not build a Record before the nil check.
func TestAllocsEmitDisabled(t *testing.T) {
	var s *Sink
	n := testing.AllocsPerRun(1000, func() {
		s.BusRequest(1, 0, 0x40, 1)
		s.BusGrant(1, 0, 0x40, true, 1, 0, 0)
		s.Retry(1, 0, 0x40, 3, false, 1)
		s.Drain(1, 0x40, 1)
		s.BusComplete(1, 0, 0x40, 1, 0, 0)
	})
	if n != 0 {
		t.Fatalf("disabled-sink emits allocate %.1f/op, want 0", n)
	}
}

// TestAllocsEmitEnabled: with subscribers attached, emission reuses the
// sink's scratch record instead of escaping a fresh one per event.
func TestAllocsEmitEnabled(t *testing.T) {
	s := NewSink(nil)
	var total uint64
	s.Subscribe(func(r *Record) { total += uint64(r.Addr) })
	emit := func() {
		s.BusRequest(1, 0, 0x40, 1)
		s.BusGrant(1, 0, 0x40, true, 1, 0, 0)
		s.Retry(1, 0, 0x40, 3, true, 1)
		s.BusComplete(1, 0, 0x40, 1, 0, 0)
	}
	emit() // warm-up
	if n := testing.AllocsPerRun(1000, emit); n != 0 {
		t.Fatalf("enabled-sink emits allocate %.1f/op, want 0", n)
	}
	if total == 0 {
		t.Fatal("subscriber never ran")
	}
}

// TestAllocsJSONLWriter: the JSONL exporter renders into a reusable append
// buffer (strconv, no fmt.Sprintf chains), so a steady-state export is
// allocation-free per row.
func TestAllocsJSONLWriter(t *testing.T) {
	s := NewSink(nil)
	jw := NewJSONLWriter(discardWriter{}, func(k uint8) string { return "read-line" })
	s.Subscribe(jw.Handle)
	emit := func() {
		s.BusRequest(1, 0, 0x2000_0040, 12)
		s.BusGrant(1, 0, 0x2000_0040, true, 12, 0, 0)
		s.Retry(1, 0, 0x2000_0040, 3, true, 12)
		s.Drain(1, 0x2000_0040, 11)
		s.BusComplete(1, 0, 0x2000_0040, 12, 0, 0)
	}
	emit() // warm-up: first rows may grow the buffer
	if n := testing.AllocsPerRun(1000, emit); n != 0 {
		t.Fatalf("JSONL rows allocate %.1f/op, want 0", n)
	}
	if jw.Err() != nil || jw.Written() == 0 {
		t.Fatalf("writer err=%v written=%d", jw.Err(), jw.Written())
	}
}

// BenchmarkJSONLWriter measures the per-row cost of the append-based
// renderer (the guard companion to TestAllocsJSONLWriter).
func BenchmarkJSONLWriter(b *testing.B) {
	s := NewSink(nil)
	jw := NewJSONLWriter(discardWriter{}, func(k uint8) string { return "read-line" })
	s.Subscribe(jw.Handle)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.BusRequest(1, 0, 0x2000_0040, uint64(i+1))
		s.Retry(1, 0, 0x2000_0040, 2, true, uint64(i+1))
		s.BusComplete(1, 0, 0x2000_0040, uint64(i+1), 0, 0)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
