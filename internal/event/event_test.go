package event

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"hetcc/internal/coherence"
)

// TestNilSinkIsSafe exercises every emit helper and accessor on a nil sink:
// the disabled path must be a no-op, never a panic.
func TestNilSinkIsSafe(t *testing.T) {
	var s *Sink
	s.BusRequest(0, 1, 0x100, 1)
	s.BusGrant(0, 1, 0x100, true, 1, 0, 0)
	s.Retry(0, 1, 0x100, 3, false, 1)
	s.SnoopHit(1, 0x100, coherence.BusRd, 0, false, true, false, false)
	s.StateChange(1, 0x100, coherence.Invalid, coherence.Exclusive)
	s.WrapperConvert(1, coherence.BusRd, coherence.BusRdX)
	s.SharedOverride(1, true, false)
	s.Drain(1, 0x100, 0)
	s.BusComplete(0, 1, 0x100, 1, 0, 0, 0)
	s.MemAccess(0, 0x104, true)
	s.Subscribe(func(*Record) { t.Fatal("nil sink delivered an event") })
}

// TestSinkStampsCountsAndFansOut checks the stamp clock, per-kind delivery
// (counted by a subscriber) and multi-subscriber delivery order.
func TestSinkStampsCountsAndFansOut(t *testing.T) {
	var cycle uint64 = 41
	s := NewSink(func() uint64 { cycle++; return cycle })
	var got []Record
	counts := map[Kind]int{}
	s.Subscribe(func(r *Record) { got = append(got, *r); counts[r.Kind]++ })
	order := ""
	s.Subscribe(func(*Record) { order += "b" })

	s.StateChange(0, 0x2000_0000, coherence.Invalid, coherence.Modified)
	s.StateChange(1, 0x2000_0020, coherence.Exclusive, coherence.Invalid)
	s.Drain(1, 0x2000_0020, 0)

	if len(got) != 3 || order != "bbb" {
		t.Fatalf("delivered %d/%q, want 3 records to both subscribers", len(got), order)
	}
	if got[0].Cycle != 42 || got[2].Cycle != 44 {
		t.Fatalf("cycle stamps %d/%d, want 42/44", got[0].Cycle, got[2].Cycle)
	}
	if got[0].Kind != StateChange || got[0].Old != coherence.Invalid || got[0].New != coherence.Modified {
		t.Fatalf("record %+v lost its payload", got[0])
	}
	if counts[StateChange] != 2 || counts[Drain] != 1 || len(counts) != 2 {
		t.Fatalf("counts %v, want state-change:2 drain:1 only", counts)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		BusRequest: "bus-request", BusGrant: "bus-grant", Retry: "retry",
		SnoopHit: "snoop-hit", StateChange: "state-change",
		WrapperConvert: "wrapper-convert", SharedOverride: "shared-override",
		Drain: "drain", BusComplete: "bus-complete", MemAccess: "mem-access",
	}
	if len(want) != int(NumKinds) {
		t.Fatalf("test covers %d kinds, package has %d", len(want), NumKinds)
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), name)
		}
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Errorf("unknown kind renders %q", Kind(200).String())
	}
}

// TestJSONLWriter emits one record of each kind and checks every line is a
// self-contained JSON object carrying the kind tag and payload fields.
func TestJSONLWriter(t *testing.T) {
	var sb strings.Builder
	s := NewSink(nil)
	jw := NewJSONLWriter(&sb, func(k uint8) string { return "bus-kind-" + string('0'+rune(k)) })
	s.Subscribe(jw.Handle)

	s.BusRequest(0, 2, 0x2000_0000, 7)
	s.BusGrant(0, 2, 0x2000_0000, true, 7, 0, 0)
	s.Retry(1, 2, 0x2000_0000, 4, true, 7)
	s.SnoopHit(1, 0x2000_0000, coherence.BusRdX, 0, true, false, false, true)
	s.StateChange(0, 0x2000_0000, coherence.Invalid, coherence.Exclusive)
	s.WrapperConvert(1, coherence.BusRd, coherence.BusRdX)
	s.SharedOverride(1, true, false)
	s.Drain(0, 0x2000_0000, 9)
	s.BusComplete(0, 2, 0x2000_0000, 7, 0, 0, 0)
	s.MemAccess(0, 0x2000_0004, true)

	if jw.Err() != nil {
		t.Fatal(jw.Err())
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 10 || jw.Written() != 10 {
		t.Fatalf("%d lines, %d written, want 10", len(lines), jw.Written())
	}
	wantKinds := []string{
		"bus-request", "bus-grant", "retry", "snoop-hit",
		"state-change", "wrapper-convert", "shared-override", "drain",
		"bus-complete", "mem-access",
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if obj["kind"] != wantKinds[i] {
			t.Errorf("line %d kind %v, want %s", i, obj["kind"], wantKinds[i])
		}
	}
	if !strings.Contains(lines[0], `"op":"bus-kind-2"`) {
		t.Errorf("busName not applied: %s", lines[0])
	}
	if !strings.Contains(lines[4], `"old":"I"`) || !strings.Contains(lines[4], `"new":"E"`) {
		t.Errorf("state-change payload wrong: %s", lines[4])
	}
	if !strings.Contains(lines[5], `"from":"BusRd"`) || !strings.Contains(lines[5], `"to":"BusRdX"`) {
		t.Errorf("wrapper-convert payload wrong: %s", lines[5])
	}
	if !strings.Contains(lines[2], `"retries":4`) || !strings.Contains(lines[2], `"drain":true`) {
		t.Errorf("retry payload wrong: %s", lines[2])
	}
	if !strings.Contains(lines[8], `"op":"bus-kind-2"`) {
		t.Errorf("bus-complete payload wrong: %s", lines[8])
	}
	if !strings.Contains(lines[3], `"peer":0`) || !strings.Contains(lines[3], `"inval":true`) ||
		!strings.Contains(lines[3], `"converted":true`) {
		t.Errorf("snoop-hit payload wrong: %s", lines[3])
	}
	if !strings.Contains(lines[9], `"addr":"0x20000004"`) || !strings.Contains(lines[9], `"write":true`) {
		t.Errorf("mem-access payload wrong: %s", lines[9])
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

// TestJSONLWriterStopsOnError checks the writer latches its first error and
// stops writing rather than spamming a broken destination.
func TestJSONLWriterStopsOnError(t *testing.T) {
	s := NewSink(nil)
	jw := NewJSONLWriter(&failWriter{n: 2}, nil)
	s.Subscribe(jw.Handle)
	for i := 0; i < 5; i++ {
		s.Drain(0, uint32(i), 0)
	}
	if jw.Err() == nil || jw.Written() != 2 {
		t.Fatalf("err=%v written=%d, want latched error after 2", jw.Err(), jw.Written())
	}
}

// flushFailWriter accepts writes but fails its final flush — the shape of a
// bufio.Writer over a full disk, where the data loss only surfaces at flush
// time.
type flushFailWriter struct{ writes int }

func (f *flushFailWriter) Write(p []byte) (int, error) { f.writes++; return len(p), nil }
func (f *flushFailWriter) Flush() error                { return errors.New("flush: disk full") }

// TestJSONLWriterCloseSurfacesErrors checks Close reports what Handle could
// not: a latched write error, and a buffered target's flush failure.
func TestJSONLWriterCloseSurfacesErrors(t *testing.T) {
	// A latched write error comes back from Close verbatim.
	s := NewSink(nil)
	jw := NewJSONLWriter(&failWriter{n: 1}, nil)
	s.Subscribe(jw.Handle)
	s.Drain(0, 0x10, 0)
	s.Drain(0, 0x20, 0)
	if err := jw.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Close() = %v, want the latched write error", err)
	}

	// A flush failure on an otherwise clean run surfaces from Close and
	// latches into Err.
	fw := &flushFailWriter{}
	s2 := NewSink(nil)
	jw2 := NewJSONLWriter(fw, nil)
	s2.Subscribe(jw2.Handle)
	s2.Drain(0, 0x10, 0)
	if jw2.Err() != nil {
		t.Fatalf("premature error before Close: %v", jw2.Err())
	}
	if err := jw2.Close(); err == nil || err.Error() != "flush: disk full" {
		t.Fatalf("Close() = %v, want the flush error", err)
	}
	if jw2.Err() == nil {
		t.Fatal("flush error not latched into Err")
	}
	if fw.writes != 1 {
		t.Fatalf("%d writes reached the target, want 1", fw.writes)
	}

	// An unbuffered clean target closes silently.
	var sb strings.Builder
	jw3 := NewJSONLWriter(&sb, nil)
	if err := jw3.Close(); err != nil {
		t.Fatalf("clean Close() = %v", err)
	}
}

// TestJSONLWriterNilBusName checks the numeric fallback when no bus namer is
// wired (the writer must not depend on package bus).
func TestJSONLWriterNilBusName(t *testing.T) {
	var sb strings.Builder
	s := NewSink(nil)
	jw := NewJSONLWriter(&sb, nil)
	s.Subscribe(jw.Handle)
	s.BusRequest(0, 7, 0x10, 1)
	if !strings.Contains(sb.String(), "Kind(7)") {
		t.Fatalf("fallback naming missing: %s", sb.String())
	}
}
