// Package profile implements the per-core, per-cause stall-cycle ledger: it
// attributes every CPU stall cycle to exactly one exclusive cause, so the
// paper's evaluation question — *where do the cycles go* when heterogeneous
// snoopers share a bus — has a machine-readable answer instead of the single
// opaque StallCycles aggregate.
//
// The ledger is driven from two sides:
//
//   - the CPU tells the ledger where each stall episode begins, with its
//     class (memory access, lock/flag spin, or cache drain), and where it
//     ends; the ledger attributes the stalled CPU edges in between in bulk,
//     so the per-cause sums are conserved against cpu.Stats.StallCycles by
//     construction;
//   - the coherence event stream (package event) tracks the bus-side phase
//     of the core's outstanding transactions — arbitration wait, ARTRY
//     back-off, drain wait, data phase — refining memory-access stalls into
//     the paper's cost components, and marks the lines a core lost to a
//     wrapper read→write conversion, so the core's next fill of one is an
//     invalidation re-miss.
//
// The conservation invariant (DESIGN.md §7c) is the load-bearing correctness
// rule: for every core, the sum of attributed causes equals StallCycles
// exactly.  A cycle the ledger cannot classify lands in CauseOther rather
// than disappearing, so the invariant holds even if a new stall source is
// added without instrumentation.
//
// Like the metrics and event layers, a nil *Ledger is valid everywhere and
// records nothing: every hook is a single nil check when profiling is off.
package profile

import (
	"fmt"
	"io"
	"slices"

	"hetcc/internal/bus"
	"hetcc/internal/event"
)

// Cause enumerates the exclusive stall causes of the taxonomy (DESIGN.md §7c).
type Cause uint8

const (
	// CauseArb: the core's oldest bus transaction is queued awaiting
	// arbitration (submitted, not yet granted, not under retry).
	CauseArb Cause = iota
	// CauseRetry: the core's transaction was ARTRYed and is in retry
	// back-off or re-arbitration, with no dirty-line drain implicated.
	CauseRetry
	// CauseDrain: dirty-line drain/steal — the core's own write-back,
	// software clean, or ISR drain is in flight, or its transaction is
	// being retried while a remote owner (cache or ISR) drains the line.
	CauseDrain
	// CauseRefill: the granted data phase of a fill or uncached access is
	// in progress (memory burst, single-word, or cache-to-cache latency).
	CauseRefill
	// CauseInval: an invalidation-induced re-miss — the whole stall of a
	// miss on a line that was invalidated by a wrapper read→write
	// conversion since the core last held it (the paper's coherence cost).
	CauseInval
	// CauseLock: lock acquisition/release memory operations and flag spin
	// waits (WaitEq polling).
	CauseLock
	// CauseOther: stalled cycles the ledger could not classify.  Kept as an
	// explicit bucket so the conservation invariant holds by construction.
	CauseOther

	causeCount
)

// String returns the cause's report key.
func (c Cause) String() string {
	switch c {
	case CauseArb:
		return "arb-wait"
	case CauseRetry:
		return "retry-backoff"
	case CauseDrain:
		return "drain"
	case CauseRefill:
		return "refill"
	case CauseInval:
		return "inval-remiss"
	case CauseLock:
		return "lock-spin"
	case CauseOther:
		return "other"
	default:
		return fmt.Sprintf("Cause(%d)", uint8(c))
	}
}

// Causes lists every cause in display order (folded stacks, tests).
func Causes() []Cause {
	out := make([]Cause, 0, causeCount)
	for c := Cause(0); c < causeCount; c++ {
		out = append(out, c)
	}
	return out
}

// Class is the CPU-side classification of a stall episode.
type Class uint8

const (
	classNone Class = iota
	// ClassAccess: a memory-access stall (cache miss, bus write, or
	// uncached access).
	ClassAccess
	// ClassLock: a lock-protocol or flag-spin stall.
	ClassLock
	// ClassDrain: a cache-drain stall (software clean, explicit cache op,
	// or ISR drain).
	ClassDrain
)

// busPhase tracks where a core's oldest outstanding bus transaction is in
// its lifecycle, reconstructed from the event stream.
type busPhase uint8

const (
	phaseIdle busPhase = iota
	phaseArb
	phaseRetry
	phaseDrainWait
	phaseData
)

// Span is one contiguous run of stalled CPU cycles attributed to a single
// cause, in engine cycles.  Package chrometrace renders spans as per-core
// timeline lanes.
type Span struct {
	Core  int
	Cause Cause
	// Start is the engine cycle of the first stalled tick; End is one past
	// the engine cycle of the last stalled tick of the span.
	Start uint64
	End   uint64
}

// DefaultMaxSpans bounds the retained stall spans so profiling-enabled runs
// cannot grow memory without bound.
const DefaultMaxSpans = 1 << 17

type coreState struct {
	class        Class // classNone outside a stall episode
	inval        bool  // the open access stall is an invalidation re-miss
	pendingInval bool  // the next access stall will be an invalidation re-miss

	queued    int // outstanding bus transactions for this master
	pendingWB int // of which write-backs (drains)
	phase     busPhase
	grantWB   bool // the in-flight data phase is a write-back

	counts [causeCount]uint64

	// During a stall episode, stalled CPU edges are attributed in bulk at
	// each state-mutation point, at Unstall and at Finish, against the
	// state in force since the last one.  lastEdge is the engine cycle of
	// the last attributed edge, div the core's clock divisor.
	lastEdge uint64
	div      uint64

	spanOpen  bool
	spanCause Cause
	spanStart uint64
	spanEnd   uint64
}

// coreLine names one core's copy of one cache line.
type coreLine struct {
	core int
	base uint32
}

// Ledger is the per-core stall accountant.  It is not safe for concurrent
// use (the simulation kernel is single-threaded, DESIGN.md invariant 7).
type Ledger struct {
	cores        []coreState
	spans        []Span // in close order (see closeSpan); doubles when full
	maxSpans     int
	droppedSpans uint64

	// lost holds the lines a core's snooper invalidated under a wrapper
	// read→write conversion; the core's next fill request for one of them
	// consumes the mark and makes that stall an invalidation re-miss.
	lost map[coreLine]struct{}
}

// NewLedger creates a ledger for cores CPU cores (bus masters 0..cores-1;
// events from other masters, e.g. the DMA engine, are ignored).
func NewLedger(cores int) *Ledger {
	return &Ledger{cores: make([]coreState, cores), maxSpans: DefaultMaxSpans, lost: make(map[coreLine]struct{})}
}

func (l *Ledger) core(i int) *coreState {
	if l == nil || i < 0 || i >= len(l.cores) {
		return nil
	}
	return &l.cores[i]
}

func isWriteBack(kind uint8) bool {
	return bus.Kind(kind) == bus.WriteLine || bus.Kind(kind) == bus.WriteLineInv
}

func isFill(kind uint8) bool {
	return bus.Kind(kind) == bus.ReadLine || bus.Kind(kind) == bus.ReadLineOwn
}

// HandleEvent consumes the coherence event stream, tracking each core's
// bus-side transaction phase and the lines it lost to a wrapper read→write
// conversion.  Subscribe it to the platform's event sink.
func (l *Ledger) HandleEvent(r *event.Record) {
	cs := l.core(r.Core)
	if cs == nil {
		return
	}
	// Lazy mode: the stalled edges up to and including this event's cycle
	// resolved against the phase state as it was *before* this event (the
	// tick-mode CPU ticks before the bus each cycle), so flush them first.
	l.flushThrough(r.Core, cs, r.Cycle)
	switch r.Kind {
	case event.SnoopHit:
		// A flush's line is invalidated only when its drain completes, but
		// the core cannot refill it before then, so marking it now is the
		// same.
		if r.Inval && r.Converted {
			l.lost[coreLine{r.Core, r.Addr}] = struct{}{}
		}
	case event.BusRequest:
		cs.queued++
		if isWriteBack(r.BusKind) {
			cs.pendingWB++
		}
		if cs.phase == phaseIdle {
			cs.phase = phaseArb
		}
		if isFill(r.BusKind) {
			l.noteRefill(cs, coreLine{r.Core, r.Addr})
		}
	case event.BusGrant:
		cs.phase = phaseData
		cs.grantWB = isWriteBack(r.BusKind)
	case event.Retry:
		if r.Drain {
			cs.phase = phaseDrainWait
		} else {
			cs.phase = phaseRetry
		}
	case event.BusComplete:
		if cs.queued > 0 {
			cs.queued--
		}
		if isWriteBack(r.BusKind) && cs.pendingWB > 0 {
			cs.pendingWB--
		}
		if cs.queued > 0 {
			cs.phase = phaseArb
		} else {
			cs.phase = phaseIdle
		}
	}
}

// Stall opens a stall episode of class for core.  now is the engine cycle
// of the instruction that stalled (its first stalled edge is now+div) and
// div the core's clock divisor.  Stalled edges are not attributed outside
// an episode.
func (l *Ledger) Stall(core int, class Class, now, div uint64) {
	if cs := l.core(core); cs != nil {
		cs.class = class
		cs.inval = class == ClassAccess && cs.pendingInval
		cs.pendingInval = false
		cs.lastEdge = now
		cs.div = div
	}
}

// Unstall ends core's stall episode when the completion that unblocks the
// core arrives: it attributes the stalled edges through engine cycle
// through (the core's last stalled edge), closes the open span and clears
// the class and re-miss flags, so bus events before the core's next stall
// attribute nothing.  It does nothing outside an episode.
func (l *Ledger) Unstall(core int, through uint64) {
	if cs := l.core(core); cs != nil && cs.class != classNone {
		l.flushThrough(core, cs, through)
		l.closeSpan(core, cs)
		cs.class = classNone
		cs.inval, cs.pendingInval = false, false
	}
}

// flushThrough attributes every stalled CPU edge in (lastEdge, through] to
// the cause the core's *current* state resolves to.  Callers flush before
// every mutation of that state, which is what makes bulk attribution
// edge-exact: between two mutations the resolved cause is constant.
func (l *Ledger) flushThrough(core int, cs *coreState, through uint64) {
	if cs.class == classNone {
		return
	}
	last := through - through%cs.div
	if last <= cs.lastEdge {
		return
	}
	k := (last - cs.lastEdge) / cs.div
	cause := cs.resolve()
	cs.counts[cause] += k
	if cs.spanOpen && cs.spanCause == cause {
		cs.spanEnd = last + 1
	} else {
		l.closeSpan(core, cs)
		cs.spanOpen = true
		cs.spanCause = cause
		cs.spanStart = cs.lastEdge + cs.div
		cs.spanEnd = last + 1
	}
	cs.lastEdge = last
}

// noteRefill consumes line's lost mark, if any, flagging the core's current
// (or imminent) memory-access stall as an invalidation-induced re-miss.
func (l *Ledger) noteRefill(cs *coreState, line coreLine) {
	if _, ok := l.lost[line]; !ok {
		return
	}
	delete(l.lost, line)
	if cs.class == ClassAccess {
		cs.inval = true
	} else {
		cs.pendingInval = true
	}
}

// resolve maps the core's current state to the exclusive cause of this
// stalled cycle.
func (cs *coreState) resolve() Cause {
	switch cs.class {
	case ClassLock:
		return CauseLock
	case ClassDrain:
		return CauseDrain
	case ClassAccess:
		if cs.inval {
			return CauseInval
		}
		switch cs.phase {
		case phaseData:
			if cs.grantWB {
				return CauseDrain // eviction/clean write-back transfer
			}
			return CauseRefill
		case phaseDrainWait:
			return CauseDrain
		case phaseRetry:
			return CauseRetry
		case phaseArb:
			if cs.pendingWB > 0 {
				return CauseDrain // a queued write-back blocks the fill
			}
			return CauseArb
		}
	}
	return CauseOther
}

// closeSpan ends core's open span and keeps it in close order: by the engine
// cycle at which a run flushed at every edge closes it, then by core, which
// is the order the tick scheduler's CPU ticks close spans in.  That cycle is
// the core's next edge after the span's last one: the first edge of a new
// cause, or the tick at which the stall ends.  It follows from the span
// alone, so a span found late, because its core's edges were flushed in
// bulk, still goes to its place, and the order does not depend on how
// often the ledger is flushed.
func (l *Ledger) closeSpan(core int, cs *coreState) {
	if !cs.spanOpen {
		return
	}
	at := cs.spanEnd - 1 + cs.div
	i := len(l.spans)
	for i > 0 {
		prev := l.spans[i-1]
		prevAt := prev.End - 1 + l.cores[prev.Core].div
		if prevAt < at || prevAt == at && prev.Core < core {
			break
		}
		i--
	}
	l.keepSpan(i, core, cs)
}

// keepSpan stores core's open span at index i of the span list.  Once the
// retention bound is reached the last span in close order is the one
// dropped, so the kept spans are the earliest-closing ones.
func (l *Ledger) keepSpan(i, core int, cs *coreState) {
	cs.spanOpen = false
	if len(l.spans) >= l.maxSpans {
		l.droppedSpans++
		if i == len(l.spans) {
			return
		}
		l.spans = l.spans[:len(l.spans)-1]
	}
	if len(l.spans) == cap(l.spans) {
		l.spans = slices.Grow(l.spans, len(l.spans))
	}
	l.spans = append(l.spans, Span{})
	copy(l.spans[i+1:], l.spans[i:])
	l.spans[i] = Span{Core: core, Cause: cs.spanCause, Start: cs.spanStart, End: cs.spanEnd}
}

// Finish ends the run at engine cycle end, the last cycle the engine ran:
// it attributes the stalled edges of every core still stalled through end,
// then closes the open spans, in core order after every span closed during
// the run.  The platform calls it once, before Summary and Spans.
func (l *Ledger) Finish(end uint64) {
	if l == nil {
		return
	}
	for i := range l.cores {
		l.flushThrough(i, &l.cores[i], end)
	}
	for i := range l.cores {
		if cs := &l.cores[i]; cs.spanOpen {
			l.keepSpan(len(l.spans), i, cs)
		}
	}
}

// Spans returns the recorded stall spans in close order (see closeSpan;
// nil for a nil ledger).  It is the ledger's clipped backing slice, not a
// copy: callers must not mutate it.  Call Finish first so trailing stalls
// are included.
func (l *Ledger) Spans() []Span {
	if l == nil {
		return nil
	}
	return slices.Clip(l.spans)
}

// Count returns core's attributed cycles for cause (0 for nil or out of
// range).
func (l *Ledger) Count(core int, cause Cause) uint64 {
	cs := l.core(core)
	if cs == nil || cause >= causeCount {
		return 0
	}
	return cs.counts[cause]
}

// Total returns core's total attributed stall cycles.
func (l *Ledger) Total(core int) uint64 {
	cs := l.core(core)
	if cs == nil {
		return 0
	}
	var t uint64
	for _, n := range cs.counts {
		t += n
	}
	return t
}

// CoreSummary is one core's slice of the ledger.
type CoreSummary struct {
	Core int `json:"core"`
	// StallCycles is the sum of all attributed causes; the conservation
	// invariant requires it to equal the core's cpu.Stats.StallCycles.
	StallCycles uint64 `json:"stall_cycles"`
	// Causes maps cause name to attributed CPU cycles (non-zero causes
	// only; keys sort deterministically under encoding/json).
	Causes map[string]uint64 `json:"causes"`
}

// Summary is the serialisable end-of-run view of the ledger.
type Summary struct {
	Cores []CoreSummary `json:"cores"`
	// DroppedSpans counts stall spans discarded beyond the retention bound
	// (the per-cause cycle counts are never dropped).
	DroppedSpans uint64 `json:"dropped_spans,omitempty"`
}

// Summary renders the ledger (zero value for nil).
func (l *Ledger) Summary() Summary {
	if l == nil {
		return Summary{}
	}
	s := Summary{DroppedSpans: l.droppedSpans}
	for i := range l.cores {
		cs := &l.cores[i]
		c := CoreSummary{Core: i, Causes: make(map[string]uint64)}
		for cause := Cause(0); cause < causeCount; cause++ {
			if n := cs.counts[cause]; n > 0 {
				c.Causes[cause.String()] = n
				c.StallCycles += n
			}
		}
		s.Cores = append(s.Cores, c)
	}
	return s
}

// WriteFolded writes the summary as folded stacks — one "core;cause count"
// line per non-zero cause — the input format of flamegraph tooling
// (flamegraph.pl, inferno, speedscope).  coreName labels the first frame
// (nil falls back to "core N").
func WriteFolded(w io.Writer, s Summary, coreName func(int) string) error {
	for _, c := range s.Cores {
		label := fmt.Sprintf("core%d", c.Core)
		if coreName != nil {
			label = coreName(c.Core)
		}
		for _, cause := range Causes() {
			n := c.Causes[cause.String()]
			if n == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s;%s %d\n", label, cause, n); err != nil {
				return fmt.Errorf("profile: folded write: %w", err)
			}
		}
	}
	return nil
}
