// Package chrometrace exports simulation activity in the Chrome trace-event
// ("catapult") JSON format, loadable in Perfetto (https://ui.perfetto.dev)
// and chrome://tracing.
//
// Two sources feed the export:
//
//   - trace.Log events become instant events ("ph":"i"), one lane (tid) per
//     emitting unit;
//   - bus tenures, drawn from the span collector's transaction records
//     (package span), become complete events ("ph":"X") with a duration,
//     one lane per bus master, so contention, ARTRY storms and
//     back-to-back tenures are visible on the timeline.
//
// Timestamps are microseconds at the paper's clocking: the engine advances
// at 100 MHz, so one engine cycle is 0.01 us.
package chrometrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"hetcc/internal/audit"
	"hetcc/internal/bus"
	"hetcc/internal/profile"
	"hetcc/internal/sharing"
	"hetcc/internal/span"
	"hetcc/internal/trace"
)

// EngineCyclesPerMicrosecond converts engine cycles (100 MHz) to trace
// timestamps (microseconds).
const EngineCyclesPerMicrosecond = 100.0

// Event is one trace-event record.  Every event carries the five keys the
// format requires ("ph", "ts", "pid", "tid", "name"); complete events add
// "dur".
type Event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
	// Cat and ID pair flow events ("ph":"s"/"f"): the viewer draws an arrow
	// between the start and finish carrying the same category and id.  BP
	// ("bp":"e") makes the finish bind to its enclosing slice.
	Cat string `json:"cat,omitempty"`
	ID  string `json:"id,omitempty"`
	BP  string `json:"bp,omitempty"`
}

// Process ids used in the export.
const (
	// PidBus groups bus-tenure spans, one tid per bus master.
	PidBus = 1
	// PidLog groups trace.Log instant events, one tid per unit.
	PidLog = 2
	// PidAudit groups invariant-violation markers from the online auditor.
	PidAudit = 3
	// PidProfile groups per-core stall-cause spans from the cycle ledger.
	PidProfile = 4
	// PidSharing groups the address-heatmap counter tracks from the
	// sharing-pattern collector.
	PidSharing = 5
)

func usAt(cycle uint64) float64 { return float64(cycle) / EngineCyclesPerMicrosecond }

// meta builds a process/thread naming metadata event ("ph":"M").
func meta(kind string, pid, tid int, label string) Event {
	return Event{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": label}}
}

// FromTxns draws the bus lanes from the span collector's transaction
// records, one complete event per tenure and one lane per master:
//
//   - each completed transaction is a tenure from its grant to its
//     completion, with "retries" its number of ARTRY epochs;
//   - each ARTRY epoch is an aborted tenure one bus cycle (busCycle engine
//     cycles) long, with "retries" its 1-based index.  Epochs that would end
//     after the run's last cycle, end, are skipped.
//
// Tenures are emitted in end-cycle order.  Transactions the collector
// dropped beyond its retention bound are reported by a marker, as FromLog
// reports dropped trace lines.  masterName labels the lanes (nil falls back
// to "master N").
func FromTxns(c *span.Collector, busCycle, end uint64, masterName func(id int) string) []Event {
	type tenure struct {
		txn        *span.Txn
		start, end uint64
		aborted    bool
		retries    int
	}
	var tenures []tenure
	txns := c.Txns()
	for i := range txns {
		t := &txns[i]
		for j, ep := range t.Retries {
			if ep.Cycle+busCycle <= end {
				tenures = append(tenures, tenure{t, ep.Cycle, ep.Cycle + busCycle, true, j + 1})
			}
		}
		if t.Done {
			tenures = append(tenures, tenure{t, t.Grant, t.Complete, false, len(t.Retries)})
		}
	}
	dropped := c.Dropped()
	if len(tenures) == 0 && dropped == 0 {
		return nil
	}
	sort.SliceStable(tenures, func(i, j int) bool { return tenures[i].end < tenures[j].end })
	events := []Event{meta("process_name", PidBus, 0, "bus tenures")}
	seen := map[int]bool{}
	for _, t := range tenures {
		m := t.txn.Master
		if !seen[m] {
			seen[m] = true
			label := fmt.Sprintf("master %d", m)
			if masterName != nil {
				label = masterName(m)
			}
			events = append(events, meta("thread_name", PidBus, m, label))
		}
		name := bus.Kind(t.txn.Kind).String()
		if t.aborted {
			name = "ARTRY " + name
		}
		dur := usAt(t.end) - usAt(t.start)
		events = append(events, Event{
			Name: name,
			Ph:   "X",
			Ts:   usAt(t.start),
			Dur:  &dur,
			Pid:  PidBus,
			Tid:  m,
			Args: map[string]any{
				"addr":    fmt.Sprintf("0x%08x", t.txn.Addr),
				"retries": t.retries,
				"aborted": t.aborted,
			},
		})
	}
	if dropped > 0 {
		// The dropped transactions were submitted after the last retained
		// one.
		var at uint64
		if len(txns) > 0 {
			at = txns[len(txns)-1].Submit
		}
		events = append(events, Event{
			Name: fmt.Sprintf("%d later transactions dropped by retention bound", dropped),
			Ph:   "i",
			Ts:   usAt(at),
			Pid:  PidBus,
			Tid:  0,
			Args: map[string]any{"s": "p", "dropped": dropped},
		})
	}
	return events
}

// FromLog converts retained trace.Log events into instant events, one lane
// per emitting unit (lanes are allocated in sorted unit order so the export
// is deterministic).
func FromLog(l *trace.Log) []Event {
	evs, dropped := l.Events()
	if len(evs) == 0 {
		return nil
	}
	units := map[string]int{}
	for _, e := range evs {
		if _, ok := units[e.Unit]; !ok {
			units[e.Unit] = 0
		}
	}
	names := make([]string, 0, len(units))
	for u := range units {
		names = append(names, u)
	}
	sort.Strings(names)
	events := []Event{meta("process_name", PidLog, 0, "trace log")}
	for tid, u := range names {
		units[u] = tid
		events = append(events, meta("thread_name", PidLog, tid, u))
	}
	for _, e := range evs {
		events = append(events, Event{
			Name: e.Msg,
			Ph:   "i",
			Ts:   usAt(e.Cycle),
			Pid:  PidLog,
			Tid:  units[e.Unit],
			Args: map[string]any{"s": "t"},
		})
	}
	if dropped > 0 {
		events = append(events, Event{
			Name: fmt.Sprintf("%d older events dropped by ring bound", dropped),
			Ph:   "i",
			Ts:   usAt(evs[0].Cycle),
			Pid:  PidLog,
			Tid:  0,
			Args: map[string]any{"s": "p", "dropped": dropped},
		})
	}
	return events
}

// FromStallSpans converts the stall-cause ledger's per-core timeline into
// complete events, one lane per core, named by cause.  Side by side with the
// bus lanes this shows *why* a core is stalled at any point — an arbitration
// wait on one core lines up with the tenure occupying the bus on another.
// coreName labels the lanes (nil falls back to "core N").
func FromStallSpans(spans []profile.Span, coreName func(id int) string) []Event {
	if len(spans) == 0 {
		return nil
	}
	events := []Event{meta("process_name", PidProfile, 0, "stall causes")}
	seen := map[int]bool{}
	for _, s := range spans {
		if !seen[s.Core] {
			seen[s.Core] = true
			label := fmt.Sprintf("core %d", s.Core)
			if coreName != nil {
				label = coreName(s.Core)
			}
			events = append(events, meta("thread_name", PidProfile, s.Core, label))
		}
		dur := usAt(s.End) - usAt(s.Start)
		events = append(events, Event{
			Name: s.Cause.String(),
			Ph:   "X",
			Ts:   usAt(s.Start),
			Dur:  &dur,
			Pid:  PidProfile,
			Tid:  s.Core,
			Args: map[string]any{"cycles": s.End - s.Start},
		})
	}
	return events
}

// FromViolations converts invariant violations from the online auditor into
// instant markers on a dedicated lane, so a broken configuration shows the
// exact cycle each invariant first failed alongside the bus activity.
func FromViolations(vs []audit.Violation) []Event {
	if len(vs) == 0 {
		return nil
	}
	events := []Event{
		meta("process_name", PidAudit, 0, "invariant violations"),
		meta("thread_name", PidAudit, 0, "auditor"),
	}
	for _, v := range vs {
		events = append(events, Event{
			Name: v.Check,
			Ph:   "i",
			Ts:   usAt(v.Cycle),
			Pid:  PidAudit,
			Tid:  0,
			Args: map[string]any{
				"s":      "p",
				"core":   v.Core,
				"addr":   fmt.Sprintf("0x%08x", v.Addr),
				"detail": v.Detail,
			},
		})
	}
	return events
}

// FromSpanEdges converts the span collector's causal edges into flow events
// (ph "s"/"f" pairs), drawn as arrows by the viewer:
//
//   - retry→drain: from the ARTRY on the retried master's bus lane to the
//     draining write-back's completion on its master's lane — the cause of
//     every drain-induced retry becomes a visible arrow;
//   - complete→resume: from a transaction's completion on the bus lane to
//     the blocked core's resume point on its stall lane.
//
// The events target the FromTxns (PidBus) and FromStallSpans
// (PidProfile) lanes, so include those when exporting edges.
func FromSpanEdges(edges []span.Edge) []Event {
	var events []Event
	for i, e := range edges {
		id := fmt.Sprintf("%s-%d", e.Kind.String(), i)
		start := Event{
			Name: e.Kind.String(), Ph: "s", Ts: usAt(e.From),
			Pid: PidBus, Tid: e.FromMaster, Cat: e.Kind.String(), ID: id,
			Args: map[string]any{"txn": e.Txn},
		}
		finish := Event{
			Name: e.Kind.String(), Ph: "f", Ts: usAt(e.To),
			Pid: PidBus, Cat: e.Kind.String(), ID: id, BP: "e",
			Args: map[string]any{"txn": e.Txn},
		}
		switch e.Kind {
		case span.EdgeRetryDrain:
			start.Args["cause"] = e.Cause
			finish.Tid = e.ToMaster
			finish.Args["cause"] = e.Cause
		case span.EdgeCompleteResume:
			finish.Pid = PidProfile
			finish.Tid = e.Core
		}
		events = append(events, start, finish)
	}
	return events
}

// FromHeatmap converts the sharing collector's windowed address heatmap into
// counter events ("ph":"C"), one series per address region: the viewer draws
// a stacked area chart of bus accesses per window, so traffic migrating
// across the address map over time is visible at a glance.  Each window
// contributes one sample at its start; a closing zero sample is emitted
// after the final window so the last value does not extend forever.
func FromHeatmap(h sharing.Heatmap) []Event {
	if len(h.Windows) == 0 {
		return nil
	}
	events := []Event{
		meta("process_name", PidSharing, 0, "address heatmap"),
		meta("thread_name", PidSharing, 0, fmt.Sprintf("accesses per %d-cycle window", h.Window)),
	}
	for _, w := range h.Windows {
		args := make(map[string]any, len(w.Regions)+1)
		for _, rc := range w.Regions {
			args[rc.Base] = rc.Count
		}
		if w.Overflow > 0 {
			args["(overflow)"] = w.Overflow
		}
		events = append(events, Event{
			Name: "heat", Ph: "C", Ts: usAt(w.Start),
			Pid: PidSharing, Tid: 0, Args: args,
		})
	}
	last := h.Windows[len(h.Windows)-1]
	events = append(events, Event{
		Name: "heat", Ph: "C", Ts: usAt(last.Start + h.Window),
		Pid: PidSharing, Tid: 0, Args: map[string]any{},
	})
	return events
}

// Write emits events as a JSON array (the trace-event "array format", which
// Perfetto and chrome://tracing both accept).
func Write(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(events)
}
