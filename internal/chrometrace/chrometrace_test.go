package chrometrace

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hetcc/internal/audit"
	"hetcc/internal/bus"
	"hetcc/internal/event"
	"hetcc/internal/profile"
	"hetcc/internal/span"
	"hetcc/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden trace file")

// requireKeys asserts every encoded event carries the five keys the trace-
// event format requires.
func requireKeys(t *testing.T, events []Event) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	var raw []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("trace is not a JSON array of objects: %v", err)
	}
	for i, e := range raw {
		for _, k := range []string{"ph", "ts", "pid", "tid", "name"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event %d missing required key %q: %v", i, k, e)
			}
		}
	}
}

// busRec builds the bus records a span collector consumes.
func busRec(kind event.Kind, txn, cycle uint64, master int, op bus.Kind, addr uint32) event.Record {
	return event.Record{Kind: kind, Txn: txn, Cycle: cycle, Core: master, BusKind: uint8(op), Addr: addr}
}

// collect feeds recs to a fresh span collector.
func collect(recs ...event.Record) *span.Collector {
	c := span.NewCollector(32)
	for i := range recs {
		c.HandleEvent(&recs[i])
	}
	return c
}

func TestFromTxns(t *testing.T) {
	c := collect(
		busRec(event.BusRequest, 1, 90, 0, bus.ReadLine, 0x1000_0000),
		busRec(event.BusRequest, 2, 95, 1, bus.WriteLine, 0x1000_0020),
		busRec(event.BusGrant, 1, 100, 0, bus.ReadLine, 0x1000_0000),
		// An overlapped address phase ARTRYed during txn 1's data phase.
		busRec(event.Retry, 2, 110, 1, bus.WriteLine, 0x1000_0020),
		busRec(event.BusComplete, 1, 130, 0, bus.ReadLine, 0x1000_0000),
		busRec(event.Retry, 2, 140, 1, bus.WriteLine, 0x1000_0020),
		busRec(event.BusGrant, 2, 150, 1, bus.WriteLine, 0x1000_0020),
		busRec(event.BusRequest, 3, 160, 0, bus.Upgrade, 0x1000_0040),
		busRec(event.BusComplete, 2, 170, 1, bus.WriteLine, 0x1000_0020),
		// Would end at 201, after the run's last cycle: not drawn.
		busRec(event.Retry, 3, 199, 0, bus.Upgrade, 0x1000_0040),
	)
	events := FromTxns(c, 2, 200, func(m int) string { return map[int]string{0: "ppc", 1: "arm"}[m] })
	requireKeys(t, events)

	var spans []Event
	for _, e := range events {
		if e.Ph == "X" {
			spans = append(spans, e)
		}
	}
	want := []struct {
		name    string
		ts, dur float64
		retries int
		aborted bool
	}{
		{"ARTRY " + bus.WriteLine.String(), 1.1, 0.02, 1, true},
		{bus.ReadLine.String(), 1.0, 0.3, 0, false},
		{"ARTRY " + bus.WriteLine.String(), 1.4, 0.02, 2, true},
		{bus.WriteLine.String(), 1.5, 0.2, 2, false},
	}
	if len(spans) != len(want) {
		t.Fatalf("%d spans, want %d: %+v", len(spans), len(want), spans)
	}
	// 100 engine cycles per microsecond: cycle 100 is ts 1.0 us.  Spans come
	// in end-cycle order.
	for i, w := range want {
		s := spans[i]
		if s.Name != w.name || math.Abs(s.Ts-w.ts) > 1e-9 || math.Abs(*s.Dur-w.dur) > 1e-9 ||
			s.Args["retries"] != w.retries || s.Args["aborted"] != w.aborted {
			t.Errorf("span %d = %s ts=%v dur=%v args=%v, want %+v", i, s.Name, s.Ts, *s.Dur, s.Args, w)
		}
	}
	// One thread_name metadata lane per master, labelled by the callback.
	labels := map[string]bool{}
	for _, e := range events {
		if e.Ph == "M" && e.Name == "thread_name" {
			labels[e.Args["name"].(string)] = true
		}
	}
	if !labels["ppc"] || !labels["arm"] {
		t.Fatalf("lane labels %v", labels)
	}
	if FromTxns(nil, 2, 200, nil) != nil || FromTxns(span.NewCollector(32), 2, 200, nil) != nil {
		t.Fatal("no transactions should export nothing")
	}
}

// TestFromTxnsReportsDropped: transactions the collector could not retain
// are counted on a marker, as FromLog counts dropped trace lines.
func TestFromTxnsReportsDropped(t *testing.T) {
	c := collect(
		busRec(event.BusRequest, 1, 90, 0, bus.ReadLine, 0x1000_0000),
		busRec(event.BusGrant, 1, 100, 0, bus.ReadLine, 0x1000_0000),
		busRec(event.BusComplete, 1, 130, 0, bus.ReadLine, 0x1000_0000),
		busRec(event.BusRequest, 7, 140, 1, bus.ReadLine, 0x1000_0020), // out of sequence: dropped
	)
	if c.Dropped() != 1 {
		t.Fatalf("collector dropped %d, want 1", c.Dropped())
	}
	events := FromTxns(c, 2, 200, nil)
	requireKeys(t, events)
	last := events[len(events)-1]
	if last.Ph != "i" || last.Pid != PidBus || last.Args["dropped"] != uint64(1) {
		t.Fatalf("last event %+v, want a bus-lane marker counting 1 dropped transaction", last)
	}
}

func TestFromLog(t *testing.T) {
	var now uint64
	l := trace.NewLog(0, func() uint64 { return now }, nil)
	for _, e := range []trace.Event{
		{Cycle: 200, Unit: "bus", Msg: "grant m0"},
		{Cycle: 250, Unit: "cache0", Msg: "fill 0x100"},
		{Cycle: 300, Unit: "bus", Msg: "done"},
	} {
		now = e.Cycle
		l.Addf(e.Unit, "%s", e.Msg)
	}
	events := FromLog(l)
	requireKeys(t, events)

	var instants []Event
	for _, e := range events {
		if e.Ph == "i" {
			instants = append(instants, e)
		}
	}
	if len(instants) != 3 {
		t.Fatalf("%d instants, want 3", len(instants))
	}
	if instants[0].Ts != 2.0 {
		t.Fatalf("ts %v, want 2.0 us", instants[0].Ts)
	}
	// Lanes are allocated in sorted unit order: bus=0, cache0=1.
	if instants[0].Tid != 0 || instants[1].Tid != 1 {
		t.Fatalf("tids %d/%d, want 0/1", instants[0].Tid, instants[1].Tid)
	}
	if FromLog(nil) != nil {
		t.Fatal("nil log should export nothing")
	}
}

// TestFromLogReportsDropped checks a bounded log surfaces the ring's dropped
// count as an extra marker.
func TestFromLogReportsDropped(t *testing.T) {
	var now uint64
	l := trace.NewLog(2, func() uint64 { return now }, nil)
	for i := 0; i < 5; i++ {
		now = uint64(100 * i)
		l.Addf("bus", "e%d", i)
	}
	events := FromLog(l)
	requireKeys(t, events)
	found := false
	for _, e := range events {
		if e.Ph == "i" && e.Args["dropped"] == uint64(3) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no dropped-count marker in %v", events)
	}
}

func TestFromStallSpans(t *testing.T) {
	spans := []profile.Span{
		{Core: 0, Cause: profile.CauseLock, Start: 100, End: 200},
		{Core: 1, Cause: profile.CauseRefill, Start: 150, End: 180},
		{Core: 0, Cause: profile.CauseDrain, Start: 250, End: 260},
	}
	events := FromStallSpans(spans, func(c int) string { return map[int]string{0: "ppc", 1: "arm"}[c] })
	requireKeys(t, events)

	var xs []Event
	for _, e := range events {
		if e.Ph == "X" {
			xs = append(xs, e)
		}
	}
	if len(xs) != 3 {
		t.Fatalf("%d spans, want 3", len(xs))
	}
	if xs[0].Name != "lock-spin" || xs[0].Pid != PidProfile || xs[0].Tid != 0 {
		t.Fatalf("span 0 %+v, want lock-spin on profile pid, core lane 0", xs[0])
	}
	if xs[0].Ts != 1.0 || math.Abs(*xs[0].Dur-1.0) > 1e-9 {
		t.Fatalf("span 0 ts=%v dur=%v, want 1.0/1.0", xs[0].Ts, *xs[0].Dur)
	}
	if xs[1].Args["cycles"] != uint64(30) {
		t.Fatalf("span 1 args %v, want 30 cycles", xs[1].Args)
	}
	// One labelled lane per core, no duplicates.
	lanes := map[string]int{}
	for _, e := range events {
		if e.Ph == "M" && e.Name == "thread_name" {
			lanes[e.Args["name"].(string)]++
		}
	}
	if lanes["ppc"] != 1 || lanes["arm"] != 1 {
		t.Fatalf("lane labels %v", lanes)
	}
	if FromStallSpans(nil, nil) != nil {
		t.Fatal("no spans should export nothing")
	}
}

func TestFromViolations(t *testing.T) {
	vs := []audit.Violation{
		{Cycle: 500, Check: "swmr", Core: 1, Addr: 0x2000_0040, Detail: "2 writable copies"},
		{Cycle: 700, Check: "stale-read", Core: 0, Addr: 0x2000_0000, Detail: "read 0, want 7"},
	}
	events := FromViolations(vs)
	requireKeys(t, events)
	var markers []Event
	for _, e := range events {
		if e.Ph == "i" {
			markers = append(markers, e)
		}
	}
	if len(markers) != 2 {
		t.Fatalf("%d markers, want 2", len(markers))
	}
	if markers[0].Name != "swmr" || markers[0].Ts != 5.0 || markers[0].Pid != PidAudit {
		t.Fatalf("marker 0 %+v, want swmr at 5.0 us on the audit pid", markers[0])
	}
	if markers[1].Args["addr"] != "0x20000000" || markers[1].Args["core"] != 0 {
		t.Fatalf("marker 1 args %v", markers[1].Args)
	}
	if FromViolations(nil) != nil {
		t.Fatal("no violations should export nothing")
	}
}

// TestFromSpanEdges checks flow-event pairing: every edge yields a matched
// "s"/"f" pair with the same cat+id, the finish binds to its enclosing slice
// ("bp":"e"), and the two edge kinds land on the right lanes.
func TestFromSpanEdges(t *testing.T) {
	edges := []span.Edge{
		{Kind: span.EdgeRetryDrain, From: 140, To: 300, FromMaster: 1, ToMaster: 0, Txn: 3, Cause: 2},
		{Kind: span.EdgeCompleteResume, From: 320, To: 320, FromMaster: 0, Core: 1, Txn: 4},
	}
	events := FromSpanEdges(edges)
	requireKeys(t, events)
	if len(events) != 4 {
		t.Fatalf("%d events, want 2 start/finish pairs", len(events))
	}
	for i := 0; i < len(events); i += 2 {
		s, f := events[i], events[i+1]
		if s.Ph != "s" || f.Ph != "f" {
			t.Fatalf("pair %d phases %q/%q, want s/f", i/2, s.Ph, f.Ph)
		}
		if s.ID == "" || s.ID != f.ID || s.Cat != f.Cat {
			t.Fatalf("pair %d not linked: id %q/%q cat %q/%q", i/2, s.ID, f.ID, s.Cat, f.Cat)
		}
		if f.BP != "e" {
			t.Fatalf("pair %d finish bp %q, want e", i/2, f.BP)
		}
	}
	rd := events[1]
	if rd.Pid != PidBus || rd.Tid != 0 || rd.Args["cause"] != uint64(2) {
		t.Fatalf("retry-drain finish %+v, want draining master's bus lane with cause", rd)
	}
	cr := events[3]
	if cr.Pid != PidProfile || cr.Tid != 1 {
		t.Fatalf("complete-resume finish %+v, want resuming core's stall lane", cr)
	}
	if FromSpanEdges(nil) != nil {
		t.Fatal("no edges should export nothing")
	}
}

// TestWriteGolden pins the complete Write output — bus tenures, stall lanes,
// violation markers and causal flow arrows in one trace — against a committed
// golden file, so the exported JSON shape (key order, indentation, lane
// assignments) cannot drift silently.  Refresh with:
// go test ./internal/chrometrace -run TestWriteGolden -update
func TestWriteGolden(t *testing.T) {
	masterName := func(m int) string { return map[int]string{0: "ppc", 1: "arm"}[m] }
	var events []Event
	// Txn 2 is ARTRYed once and still queued when the trace ends; txn 4 is
	// a later RMW of the same master.  One bus cycle is 10 engine cycles here.
	events = append(events, FromTxns(collect(
		busRec(event.BusRequest, 1, 90, 0, bus.ReadLine, 0x2000_0000),
		busRec(event.BusRequest, 2, 95, 1, bus.RMWWord, 0x2000_0040),
		busRec(event.BusGrant, 1, 100, 0, bus.ReadLine, 0x2000_0000),
		busRec(event.BusComplete, 1, 130, 0, bus.ReadLine, 0x2000_0000),
		busRec(event.Retry, 2, 130, 1, bus.RMWWord, 0x2000_0040),
		busRec(event.BusRequest, 3, 150, 0, bus.WriteLine, 0x2000_0040),
		busRec(event.BusGrant, 3, 160, 0, bus.WriteLine, 0x2000_0040),
		busRec(event.BusRequest, 4, 290, 1, bus.RMWWord, 0x2000_0040),
		busRec(event.BusComplete, 3, 300, 0, bus.WriteLine, 0x2000_0040),
		busRec(event.BusGrant, 4, 300, 1, bus.RMWWord, 0x2000_0040),
		busRec(event.BusComplete, 4, 320, 1, bus.RMWWord, 0x2000_0040),
	), 10, 320, masterName)...)
	events = append(events, FromStallSpans([]profile.Span{
		{Core: 1, Cause: profile.CauseLock, Start: 130, End: 320},
		{Core: 0, Cause: profile.CauseDrain, Start: 150, End: 300},
	}, masterName)...)
	events = append(events, FromViolations([]audit.Violation{
		{Cycle: 200, Check: "swmr", Core: 1, Addr: 0x2000_0040, Detail: "2 writable copies"},
	})...)
	events = append(events, FromSpanEdges([]span.Edge{
		{Kind: span.EdgeRetryDrain, From: 140, To: 300, FromMaster: 1, ToMaster: 0, Txn: 2, Cause: 3},
		{Kind: span.EdgeCompleteResume, From: 320, To: 320, FromMaster: 1, Core: 1, Txn: 2},
	})...)
	requireKeys(t, events)

	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "full_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace drifted from golden file (re-run with -update if intended)\ngot:\n%s", buf.String())
	}
}
