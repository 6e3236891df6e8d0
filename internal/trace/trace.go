// Package trace provides the bounded text trace of a simulation: the
// platform's trace subscriber keeps bus and snoop-logic event records in
// it, and the log formats them into lines when it is read.  Tracing is
// optional: a nil *Log is valid everywhere and records nothing.
package trace

import (
	"fmt"
	"io"

	"hetcc/internal/event"
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

// Formatter renders a kept event record as its trace unit and message.
type Formatter func(r *event.Record) (unit, msg string)

// entry is one ring slot: an event record kept by Record, formatted when
// read, or the line Addf formatted.
type entry struct {
	rec  event.Record
	line *Event // set by Addf
}

// Log is a bounded in-memory event log.  When the bound is exceeded the
// oldest events are discarded (ring-buffer semantics), so long simulations
// keep the most recent — and most interesting — history.
//
// The bound is a true fixed-capacity ring: once full, each append overwrites
// the oldest slot in place (head index + wraparound), so steady-state
// appends are O(1) regardless of the bound, and Record allocates nothing.
type Log struct {
	now     func() uint64
	format  Formatter
	entries []entry
	max     int
	head    int // index of the oldest retained event once the ring is full
	dropped uint64
}

// NewLog returns a log retaining at most max events (max <= 0 means an
// unbounded log), stamping each Addf line with the now clock (typically the
// simulation engine's Now) and rendering each kept record with format.
func NewLog(max int, now func() uint64, format Formatter) *Log {
	return &Log{now: now, format: format, max: max}
}

// Addf records a formatted event at the clock's current cycle.  Safe to call
// on a nil log.
func (l *Log) Addf(unit, format string, args ...any) {
	if l == nil {
		return
	}
	l.add(entry{line: &Event{Cycle: l.now(), Unit: unit, Msg: fmt.Sprintf(format, args...)}})
}

// Record keeps a copy of r, stamped with r.Cycle, and formats it only when
// the log is read.  Safe to call on a nil log.
func (l *Log) Record(r *event.Record) {
	if l == nil {
		return
	}
	l.add(entry{rec: *r})
}

func (l *Log) add(e entry) {
	if l.max <= 0 || len(l.entries) < l.max {
		l.entries = append(l.entries, e)
		return
	}
	l.entries[l.head] = e
	l.head++
	if l.head == l.max {
		l.head = 0
	}
	l.dropped++
}

// at returns the i-th retained event, oldest first.
func (l *Log) at(i int) Event {
	j := l.head + i
	if j >= len(l.entries) {
		j -= len(l.entries)
	}
	e := &l.entries[j]
	if e.line != nil {
		return *e.line
	}
	unit, msg := l.format(&e.rec)
	return Event{Cycle: e.rec.Cycle, Unit: unit, Msg: msg}
}

// Events returns a snapshot of the retained events in ring order (oldest
// first) together with the count of events the ring bound discarded before
// the snapshot's first entry.
func (l *Log) Events() (events []Event, dropped uint64) {
	if l == nil {
		return nil, 0
	}
	events = make([]Event, len(l.entries))
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
	return len(l.entries)
}

// WriteTo dumps the retained events to w, one per line.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	if l == nil {
		return 0, nil
	}
	var total int64
	for i := 0; i < len(l.entries); i++ {
		n, err := io.WriteString(w, l.at(i).String()+"\n")
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
