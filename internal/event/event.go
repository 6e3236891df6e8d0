// Package event defines the typed coherence event stream: a flat,
// allocation-conscious record per bus/coherence action, fanned out through a
// nil-safe Sink to subscribers (the invariant auditor of package audit, the
// JSONL exporter, tests).
//
// The producer pattern mirrors package metrics: every producer holds a
// *Sink that may be nil, and every emit helper starts with a nil-receiver
// check, so a simulation built without the event stream pays exactly one
// branch per would-be event.  Records are passed to subscribers by pointer
// to one stack value; subscribers must copy a record if they retain it.
package event

import (
	"fmt"
	"io"
	"strconv"

	"hetcc/internal/coherence"
)

// Kind enumerates coherence event kinds.
type Kind uint8

const (
	// BusRequest: a master queued a bus transaction (BREQ).
	BusRequest Kind = iota
	// BusGrant: a tenure won arbitration and passed its address phase
	// un-aborted (BGNT); the shared-signal sample is recorded.
	BusGrant
	// Retry: a tenure was ARTRYed during the address phase.
	Retry
	// SnoopHit: a snooper (cache controller or TAG-CAM snoop logic) matched
	// another master's transaction against a line it holds or shadows.
	SnoopHit
	// StateChange: a cache line changed coherence state (fill, write-hit
	// upgrade, snoop action, eviction, software clean/invalidate).
	StateChange
	// WrapperConvert: a wrapper rewrote the bus op presented to its
	// processor's snoop port (the paper's read-to-write conversion).
	WrapperConvert
	// SharedOverride: a wrapper changed the shared-signal value its master
	// sampled (force-assert / force-deassert).
	SharedOverride
	// Drain: a write-back completed (eviction, software clean, snoop flush
	// or ISR drain), making memory current for the line.
	Drain
	// BusComplete: a tenure finished its data phase and left the bus; the
	// master's next queued transaction (if any) re-enters arbitration.
	BusComplete
	// MemAccess: a CPU load or store reached the bus-bound path of its cache
	// controller (miss fill, upgrade, write-through store).  Word-granular —
	// Addr is the accessed word — so sharing-pattern analysis can build
	// word-offset access sets inside a line (false-sharing detection) where
	// the line-grain BusGrant cannot.  At most one per bus transaction, so
	// the hot path stays cheap.
	MemAccess

	kindCount
)

// String returns the kind's JSONL tag.
func (k Kind) String() string {
	switch k {
	case BusRequest:
		return "bus-request"
	case BusGrant:
		return "bus-grant"
	case Retry:
		return "retry"
	case SnoopHit:
		return "snoop-hit"
	case StateChange:
		return "state-change"
	case WrapperConvert:
		return "wrapper-convert"
	case SharedOverride:
		return "shared-override"
	case Drain:
		return "drain"
	case BusComplete:
		return "bus-complete"
	case MemAccess:
		return "mem-access"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one coherence event.  It is a flat value struct; which fields
// are meaningful depends on Kind (see the per-kind emit helpers on Sink).
type Record struct {
	// Cycle is the engine cycle at emission (stamped by the Sink).
	Cycle uint64
	Kind  Kind
	// Core is the originating bus master / core index (the DMA engine's
	// master id appears here for its own bus events).
	Core int
	// Addr is the line or word address the event concerns (0 when the event
	// has no address, e.g. WrapperConvert).
	Addr uint32
	// Old and New are the line states for StateChange.
	Old, New coherence.State
	// Op is the snoop-level operation for SnoopHit and the observed op for
	// WrapperConvert; Op2 is the converted op for WrapperConvert.
	Op, Op2 coherence.BusOp
	// BusKind is the raw bus transaction kind (bus.Kind numeric value) for
	// BusRequest/BusGrant/Retry.  Kept as uint8 so this package does not
	// depend on package bus.
	BusKind uint8
	// Retries is the transaction's retry count so far (Retry events).
	Retries int
	// Drain reports whether a Retry was asserted by a snooper that needs a
	// dirty-line drain (cache flush in flight or ISR drain pending) before
	// the transaction can succeed, as opposed to a plain ARTRY.
	Drain bool
	// Peer is the requesting master whose transaction a SnoopHit matched
	// (Core is the snooper).  Together they orient the communication-matrix
	// edges of package sharing: supply/flush run snooper→requester,
	// invalidation runs requester→snooper.
	Peer int
	// Inval/Supply/Flush/Converted qualify a SnoopHit: the snooped line is
	// (eventually) invalidated; the snooper answers with a cache-to-cache
	// transfer; the snooper drains the line to memory and ARTRYs the
	// requester (including the TAG-CAM's ISR drains); the observed op was
	// rewritten by the snooper's wrapper (Op carries the converted op).
	Inval, Supply, Flush, Converted bool
	// Write reports the access direction of a MemAccess (store vs load).
	Write bool
	// SharedIn/SharedOut carry the shared-signal value before and after a
	// SharedOverride, and SharedOut the sampled value on BusGrant.
	SharedIn, SharedOut bool
	// Resident qualifies a snoop-logic Drain: the ISR found the line (false
	// for a spurious TAG-CAM hit).
	Resident bool
	// Txn is the bus-assigned transaction id for
	// BusRequest/BusGrant/Retry/BusComplete, and for Drain the id of the
	// write-back transaction that drained the line (0 for the snoop logic's
	// ISR completion, which has no bus transfer of its own).  Ids
	// are monotonically increasing from 1 in submission order, so the span
	// collector (package span) can correlate lifecycle events without the
	// bus depending on it.
	Txn uint64
	// Wait and Latency carry what the producer measured.  Wait, in bus
	// cycles: submission to grant on BusGrant; snoop hit (or CAM-overflow
	// flush) to ISR completion on a snoop-logic Drain.  Latency: the data
	// phase in bus cycles on BusGrant; the tenure in engine cycles, from
	// grant (or pipelined promotion) to completion, on BusComplete, which
	// also carries the retry count in Retries.
	Wait, Latency uint64
}

// Handler receives records synchronously as they are emitted.  The pointed-to
// record is only valid for the duration of the call.
type Handler func(*Record)

// Sink stamps, counts and fans out records.  A nil *Sink is valid everywhere
// and records nothing: every emit helper is a single nil check when the
// stream is disabled.
type Sink struct {
	now    func() uint64
	subs   []Handler
	counts [kindCount]uint64
	// scratch is the reusable record handed to subscribers: passing &r of a
	// per-emit stack value made every enabled emission a heap allocation
	// (the pointer escapes into the handler calls).  The sink is already
	// heap-resident, so reusing one field keeps the enabled path
	// allocation-free.  Handlers are synchronous consumers and must not
	// emit re-entrantly (none do: the auditor, exporters and the profiler
	// only read), and must copy the record if they retain it.
	scratch Record
}

// NewSink creates a sink stamping records with the now clock (typically the
// simulation engine's Now).  A nil clock stamps zero.
func NewSink(now func() uint64) *Sink {
	if now == nil {
		now = func() uint64 { return 0 }
	}
	return &Sink{now: now}
}

// Subscribe registers a handler.  Handlers run in registration order.
func (s *Sink) Subscribe(h Handler) {
	if s == nil || h == nil {
		return
	}
	s.subs = append(s.subs, h)
}

// Counts returns the non-zero per-kind event counts keyed by Kind.String()
// (nil for a nil sink).
func (s *Sink) Counts() map[string]uint64 {
	if s == nil {
		return nil
	}
	out := make(map[string]uint64)
	for k, n := range s.counts {
		if n > 0 {
			out[Kind(k).String()] = n
		}
	}
	return out
}

func (s *Sink) emit(r Record) {
	r.Cycle = s.now()
	s.counts[r.Kind]++
	s.scratch = r
	for i := range s.subs {
		s.subs[i](&s.scratch)
	}
}

// BusRequest records a transaction entering its master's queue; txn is the
// bus-assigned monotonically increasing transaction id.
func (s *Sink) BusRequest(core int, busKind uint8, addr uint32, txn uint64) {
	if s == nil {
		return
	}
	s.emit(Record{Kind: BusRequest, Core: core, Addr: addr, BusKind: busKind, Txn: txn})
}

// BusGrant records a tenure surviving its address phase; shared is the
// combined shared-signal sample, wait the bus cycles since submission and
// latency the data phase's length in bus cycles.
func (s *Sink) BusGrant(core int, busKind uint8, addr uint32, shared bool, txn, wait, latency uint64) {
	if s == nil {
		return
	}
	s.emit(Record{Kind: BusGrant, Core: core, Addr: addr, BusKind: busKind, SharedOut: shared, Txn: txn, Wait: wait, Latency: latency})
}

// Retry records an ARTRY abort; retries is the transaction's running count
// and drain reports whether a snooper asserted the retry to drain a dirty
// line (or complete a pending ISR drain) first.
func (s *Sink) Retry(core int, busKind uint8, addr uint32, retries int, drain bool, txn uint64) {
	if s == nil {
		return
	}
	s.emit(Record{Kind: Retry, Core: core, Addr: addr, BusKind: busKind, Retries: retries, Drain: drain, Txn: txn})
}

// SnoopHit records a snooper (core) matching peer's transaction on line
// addr; op is the coherence operation it observed (after any wrapper
// conversion).  inval/supply/flush/converted report the snooper's resolved
// reaction — inval means the snooped copy is invalidated, for a flush once
// its drain completes (cache flush or TAG-CAM ISR).
func (s *Sink) SnoopHit(core int, addr uint32, op coherence.BusOp, peer int, inval, supply, flush, converted bool) {
	if s == nil {
		return
	}
	s.emit(Record{Kind: SnoopHit, Core: core, Addr: addr, Op: op, Peer: peer,
		Inval: inval, Supply: supply, Flush: flush, Converted: converted})
}

// MemAccess records a CPU load (write=false) or store reaching its cache
// controller's bus-bound path; addr is the accessed word.
func (s *Sink) MemAccess(core int, addr uint32, write bool) {
	if s == nil {
		return
	}
	s.emit(Record{Kind: MemAccess, Core: core, Addr: addr, Write: write})
}

// StateChange records a cache line of core moving old→new.
func (s *Sink) StateChange(core int, addr uint32, old, new coherence.State) {
	if s == nil {
		return
	}
	s.emit(Record{Kind: StateChange, Core: core, Addr: addr, Old: old, New: new})
}

// WrapperConvert records a wrapper rewriting snoop op from→to.
func (s *Sink) WrapperConvert(core int, from, to coherence.BusOp) {
	if s == nil {
		return
	}
	s.emit(Record{Kind: WrapperConvert, Core: core, Op: from, Op2: to})
}

// SharedOverride records a wrapper changing the sampled shared signal.
func (s *Sink) SharedOverride(core int, in, out bool) {
	if s == nil {
		return
	}
	s.emit(Record{Kind: SharedOverride, Core: core, SharedIn: in, SharedOut: out})
}

// BusComplete records a tenure finishing its data phase and leaving the
// bus; tenure is its length in engine cycles and retries the transaction's
// ARTRY count.
func (s *Sink) BusComplete(core int, busKind uint8, addr uint32, txn, tenure uint64, retries int) {
	if s == nil {
		return
	}
	s.emit(Record{Kind: BusComplete, Core: core, Addr: addr, BusKind: busKind, Txn: txn, Latency: tenure, Retries: retries})
}

// Drain records a completed write-back of line addr; txn is the id of the
// write-back bus transaction that carried the data.
func (s *Sink) Drain(core int, addr uint32, txn uint64) {
	if s == nil {
		return
	}
	s.emit(Record{Kind: Drain, Core: core, Addr: addr, Txn: txn})
}

// SnoopLogicDrain records the TAG-CAM snoop logic's ISR completing on line
// addr: a Drain with no bus transfer of its own (Txn 0).  wait is the bus
// cycles since the hit or overflow flush that raised the ISR; resident
// reports whether the ISR found the line in the cache.
func (s *Sink) SnoopLogicDrain(core int, addr uint32, wait uint64, resident bool) {
	if s == nil {
		return
	}
	s.emit(Record{Kind: Drain, Core: core, Addr: addr, Wait: wait, Resident: resident})
}

// JSONLWriter streams records to w as one JSON object per line.  It is a
// Sink handler; writes are unbuffered, so callers stream to a bufio.Writer
// (and flush it) when exporting large runs.  Lines are rendered into a
// reusable append buffer with strconv, so the steady-state enabled path is
// allocation-free (pinned by TestAllocsJSONLWriter).
type JSONLWriter struct {
	w io.Writer
	// busName renders Record.BusKind (the platform wires bus.Kind.String);
	// nil prints the numeric value.
	busName func(uint8) string
	err     error
	n       uint64
	buf     []byte
}

// NewJSONLWriter creates a writer targeting w.  busName, when non-nil, names
// the raw bus transaction kinds in bus-request/bus-grant/retry rows.
func NewJSONLWriter(w io.Writer, busName func(uint8) string) *JSONLWriter {
	return &JSONLWriter{w: w, busName: busName, buf: make([]byte, 0, 256)}
}

// Handle implements Handler.  After the first write error it becomes a no-op
// (check Err after the run).
func (jw *JSONLWriter) Handle(r *Record) {
	if jw.err != nil {
		return
	}
	jw.render(r)
	_, jw.err = jw.w.Write(jw.buf)
	if jw.err == nil {
		jw.n++
	}
}

// Err returns the first write error, if any.
func (jw *JSONLWriter) Err() error { return jw.err }

// Close finishes the export and surfaces what Handle could not: the first
// write error, or the flush error of a buffered target (any writer with a
// `Flush() error` method, e.g. *bufio.Writer).  It does not close the
// underlying writer — the caller owns the file handle.
func (jw *JSONLWriter) Close() error {
	if jw.err != nil {
		return jw.err
	}
	if f, ok := jw.w.(interface{ Flush() error }); ok {
		jw.err = f.Flush()
	}
	return jw.err
}

// Written returns the number of rows successfully written.
func (jw *JSONLWriter) Written() uint64 { return jw.n }

// appendHex appends `"0xXXXXXXXX"` (quoted, zero-padded to 8 digits).
func appendHex(b []byte, v uint32) []byte {
	b = append(b, '"', '0', 'x')
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[(v>>uint(shift))&0xf])
	}
	return append(b, '"')
}

// appendQuoted appends s as a JSON string.  Every string rendered here (kind
// tags, bus-kind names, coherence state/op names) is plain ASCII without
// quotes or backslashes, so no escaping pass is needed; strconv.AppendQuote
// is the fallback for anything else.
func appendQuoted(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x7f {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// render rebuilds jw.buf with one "{...}\n" line for r.
func (jw *JSONLWriter) render(r *Record) {
	b := jw.buf[:0]
	b = append(b, `{"cycle":`...)
	b = strconv.AppendUint(b, r.Cycle, 10)
	b = append(b, `,"kind":`...)
	b = appendQuoted(b, r.Kind.String())
	b = append(b, `,"core":`...)
	b = strconv.AppendInt(b, int64(r.Core), 10)
	switch r.Kind {
	case BusRequest, Retry, BusComplete, BusGrant:
		b = append(b, `,"op":`...)
		b = jw.appendBus(b, r.BusKind)
		b = append(b, `,"addr":`...)
		b = appendHex(b, r.Addr)
		if r.Kind == Retry {
			b = append(b, `,"retries":`...)
			b = strconv.AppendInt(b, int64(r.Retries), 10)
			b = append(b, `,"drain":`...)
			b = strconv.AppendBool(b, r.Drain)
		}
		if r.Kind == BusGrant {
			b = append(b, `,"shared":`...)
			b = strconv.AppendBool(b, r.SharedOut)
		}
		if r.Txn != 0 {
			b = append(b, `,"txn":`...)
			b = strconv.AppendUint(b, r.Txn, 10)
		}
	case SnoopHit:
		b = append(b, `,"addr":`...)
		b = appendHex(b, r.Addr)
		b = append(b, `,"op":`...)
		b = appendQuoted(b, r.Op.String())
		b = append(b, `,"peer":`...)
		b = strconv.AppendInt(b, int64(r.Peer), 10)
		b = append(b, `,"inval":`...)
		b = strconv.AppendBool(b, r.Inval)
		b = append(b, `,"supply":`...)
		b = strconv.AppendBool(b, r.Supply)
		b = append(b, `,"flush":`...)
		b = strconv.AppendBool(b, r.Flush)
		b = append(b, `,"converted":`...)
		b = strconv.AppendBool(b, r.Converted)
	case MemAccess:
		b = append(b, `,"addr":`...)
		b = appendHex(b, r.Addr)
		b = append(b, `,"write":`...)
		b = strconv.AppendBool(b, r.Write)
	case StateChange:
		b = append(b, `,"addr":`...)
		b = appendHex(b, r.Addr)
		b = append(b, `,"old":`...)
		b = appendQuoted(b, r.Old.String())
		b = append(b, `,"new":`...)
		b = appendQuoted(b, r.New.String())
	case WrapperConvert:
		b = append(b, `,"from":`...)
		b = appendQuoted(b, r.Op.String())
		b = append(b, `,"to":`...)
		b = appendQuoted(b, r.Op2.String())
	case SharedOverride:
		b = append(b, `,"in":`...)
		b = strconv.AppendBool(b, r.SharedIn)
		b = append(b, `,"out":`...)
		b = strconv.AppendBool(b, r.SharedOut)
	case Drain:
		b = append(b, `,"addr":`...)
		b = appendHex(b, r.Addr)
		if r.Txn != 0 {
			b = append(b, `,"txn":`...)
			b = strconv.AppendUint(b, r.Txn, 10)
		}
	}
	b = append(b, '}', '\n')
	jw.buf = b
}

func (jw *JSONLWriter) appendBus(b []byte, k uint8) []byte {
	if jw.busName != nil {
		return appendQuoted(b, jw.busName(k))
	}
	b = append(b, `"Kind(`...)
	b = strconv.AppendUint(b, uint64(k), 10)
	return append(b, ')', '"')
}
