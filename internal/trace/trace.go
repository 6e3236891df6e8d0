// Package trace provides the bounded text trace of a simulation: the
// platform's trace subscriber formats bus and snoop-logic event records
// into it.  Tracing is optional: a nil *Log is valid everywhere and records
// nothing.
package trace

import (
	"fmt"
	"io"
)

// Event is one timestamped trace record.
type Event struct {
	Cycle uint64
	Unit  string
	Msg   string
}

// String formats the event as "cycle unit: msg".
func (e Event) String() string {
	return fmt.Sprintf("%8d %-12s %s", e.Cycle, e.Unit, e.Msg)
}

// Log is a bounded in-memory event log.  When the bound is exceeded the
// oldest events are discarded (ring-buffer semantics), so long simulations
// keep the most recent — and most interesting — history.
//
// The bound is a true fixed-capacity ring: once full, each append overwrites
// the oldest slot in place (head index + wraparound), so steady-state
// appends are O(1) regardless of the bound.
type Log struct {
	now     func() uint64
	events  []Event
	max     int
	head    int // index of the oldest retained event once the ring is full
	dropped uint64
}

// NewLog returns a log retaining at most max events (max <= 0 means an
// unbounded log), stamping each with the now clock (typically the simulation
// engine's Now).
func NewLog(max int, now func() uint64) *Log {
	return &Log{now: now, max: max}
}

// Addf records a formatted event at the clock's current cycle.  Safe to call
// on a nil log.
func (l *Log) Addf(unit, format string, args ...any) {
	if l == nil {
		return
	}
	e := Event{Cycle: l.now(), Unit: unit, Msg: fmt.Sprintf(format, args...)}
	if l.max <= 0 || len(l.events) < l.max {
		l.events = append(l.events, e)
		return
	}
	l.events[l.head] = e
	l.head++
	if l.head == l.max {
		l.head = 0
	}
	l.dropped++
}

// at returns the i-th retained event, oldest first.
func (l *Log) at(i int) Event {
	j := l.head + i
	if j >= len(l.events) {
		j -= len(l.events)
	}
	return l.events[j]
}

// Events returns a snapshot of the retained events in ring order (oldest
// first) together with the count of events the ring bound discarded before
// the snapshot's first entry.
func (l *Log) Events() (events []Event, dropped uint64) {
	if l == nil {
		return nil, 0
	}
	events = make([]Event, len(l.events))
	for i := range events {
		events[i] = l.at(i)
	}
	return events, l.dropped
}

// Dropped reports how many events were discarded by the ring bound.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// WriteTo dumps the retained events to w, one per line.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	if l == nil {
		return 0, nil
	}
	var total int64
	for i := 0; i < len(l.events); i++ {
		n, err := io.WriteString(w, l.at(i).String()+"\n")
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
