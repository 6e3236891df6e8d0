// Package span turns the flat coherence event stream into a causal
// transaction timeline: every bus transaction (identified by the bus-assigned
// monotonically increasing id stamped at submit) becomes one lifecycle record
// — submit → arbitration wait → retry epochs → grant → data phase → complete
// — with causal edges linking each drain-induced retry to the write-back
// transaction that forced it, and each CPU stall span (package profile's
// cause taxonomy) to the bus transaction it blocks on.
//
// From the resulting DAG the package extracts the run's critical path (see
// critpath.go): the last-retiring core's full timeline, partitioned into
// (component, cause) attributions whose sum equals the run's total cycles by
// construction, cross-checked against the profile ledger's conservation
// invariant so the two layers cannot drift.
//
// Like the metrics, event and profile layers, a nil *Collector is valid
// everywhere and records nothing; the collector is driven entirely by
// subscribing HandleEvent to the platform's event sink, so the bus and cache
// hot paths carry no span-specific code at all.
package span

import (
	"fmt"
	"io"
	"slices"

	"hetcc/internal/bus"
	"hetcc/internal/event"
	"hetcc/internal/profile"
)

// RetryEpoch is one ARTRY abort of a transaction.
type RetryEpoch struct {
	// Cycle is the engine cycle of the abort.
	Cycle uint64
	// Drain reports whether a snooper asserted the retry to drain a dirty
	// line first (as opposed to plain arbitration ping-pong).
	Drain bool
	// Cause is the id of the write-back transaction that had to drain before
	// this transaction could proceed (0 when unresolved — e.g. a plain
	// ARTRY, or a drain with no bus transfer of its own).
	Cause uint64
}

// Txn is the lifecycle record of one bus transaction.
type Txn struct {
	// ID is the bus-assigned id (monotonically increasing from 1 in
	// submission order).
	ID     uint64
	Master int
	// Kind is the raw bus transaction kind (bus.Kind numeric value).
	Kind uint8
	// Done reports whether the transaction completed before the run ended.
	Done bool
	Addr uint32
	// Submit/Grant/Complete are engine cycles: queue entry, the surviving
	// (un-aborted) address phase, and the end of the data phase.  Grant and
	// Complete are 0 while the phase has not happened.
	Submit   uint64
	Grant    uint64
	Complete uint64
	// Retries lists the ARTRY epochs in order, with causal drain links.  It
	// is a window into the collector's epoch slab (read-only to callers).
	Retries []RetryEpoch
}

// StallLink ties one profile stall span to the bus transaction it blocks on:
// the same-master transaction with the largest interval overlap (0 when the
// core stalled with no transaction outstanding, e.g. a lock spin between
// polls).
type StallLink struct {
	Core  int
	Cause profile.Cause
	// Start/End delimit the stall span in engine cycles (clamped to the
	// run).
	Start, End uint64
	// Txn is the blocking transaction's id (0 if none overlapped).
	Txn uint64
}

// EdgeKind enumerates the causal edge flavours of the DAG.
type EdgeKind uint8

const (
	// EdgeRetryDrain: a transaction's drain-retry was resolved by a
	// write-back; the edge runs from the ARTRY cycle on the retried master's
	// lane to the write-back's completion on the draining master's lane.
	EdgeRetryDrain EdgeKind = iota
	// EdgeCompleteResume: a core's stall span ended when its blocking
	// transaction completed; the edge runs from the completion on the bus
	// lane to the resume point on the core's stall lane.
	EdgeCompleteResume
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeRetryDrain:
		return "retry-drain"
	case EdgeCompleteResume:
		return "complete-resume"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// Edge is one causal edge of the transaction DAG, in engine cycles.
type Edge struct {
	Kind EdgeKind
	// From/To are the edge's endpoint cycles (To >= From).
	From, To uint64
	// FromMaster is the bus master of the source transaction.
	FromMaster int
	// ToMaster is the draining master (EdgeRetryDrain only).
	ToMaster int
	// Core is the resuming core (EdgeCompleteResume only).
	Core int
	// Txn is the source transaction id; Cause the draining write-back's id
	// (EdgeRetryDrain only).
	Txn   uint64
	Cause uint64
}

// DefaultMaxTxns bounds the retained transaction records so span-enabled
// runs cannot grow memory without bound (mirrors profile.DefaultMaxSpans).
const DefaultMaxTxns = 1 << 17

// minEpochSlab is the capacity of the first retry-epoch slab.
const minEpochSlab = 64

// Collector accumulates transaction lifecycles from the coherence event
// stream.  It is not safe for concurrent use (the simulation kernel is
// single-threaded).
//
// Its storage grows without per-event garbage: txns doubles when full, every
// transaction's Retries is a window into a shared epoch slab, and a line's
// pending-drain list is emptied in place for reuse (DESIGN.md §7e).
type Collector struct {
	lineMask uint32
	maxTxns  int
	txns     []Txn
	dropped  uint64
	// epochs is the slab the Retries windows are cut from: a window that
	// fills moves to one twice as large at the slab's end, and a slab that
	// cannot fit a window is replaced by a fresh one twice as large (the
	// windows already handed out stay where they are).
	epochs []RetryEpoch
	// openWB maps a line base to the id of the queued/in-flight write-back
	// draining it (WriteLine/WriteLineInv), for immediate retry→drain
	// resolution.  An entry closes at its Drain record or, for a write-back
	// that has none (a DMA destination write), at its completion.
	openWB map[uint32]uint64
	// wantDrain queues transaction ids whose drain-retry could not be
	// resolved yet (the flush had not been submitted at ARTRY time); the
	// next write-back submit or drain event on the base resolves them.  A
	// resolved base keeps its emptied slice, so its next waiter reuses it.
	wantDrain map[uint32][]uint64
	links     []StallLink
	finished  bool
}

// NewCollector creates a collector; lineBytes is the platform's cache line
// size (drain addresses are line bases, retried addresses may be words).
func NewCollector(lineBytes int) *Collector {
	mask := ^uint32(0)
	if lineBytes > 0 {
		mask = ^uint32(lineBytes - 1)
	}
	return &Collector{
		lineMask:  mask,
		maxTxns:   DefaultMaxTxns,
		openWB:    make(map[uint32]uint64),
		wantDrain: make(map[uint32][]uint64),
	}
}

// Dropped counts transactions discarded beyond the retention bound.
func (c *Collector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	return c.dropped
}

// Txns returns the recorded transactions in submission order (the backing
// slice; callers must not mutate it).
func (c *Collector) Txns() []Txn {
	if c == nil {
		return nil
	}
	return c.txns
}

// Links returns the stall-span links computed by Finish.
func (c *Collector) Links() []StallLink {
	if c == nil {
		return nil
	}
	return c.links
}

// get resolves a transaction id to its record.  Ids are dense from 1, so
// after the retention bound trips only the ids beyond it are unresolvable.
func (c *Collector) get(id uint64) *Txn {
	if c == nil || id == 0 || id > uint64(len(c.txns)) {
		return nil
	}
	return &c.txns[id-1]
}

// addRetry appends ep to t's retry epochs.  A full window moves to one twice
// its size at the end of the epoch slab.
func (c *Collector) addRetry(t *Txn, ep RetryEpoch) {
	if n := len(t.Retries); n == cap(t.Retries) {
		size := max(2*n, 1)
		if cap(c.epochs)-len(c.epochs) < size {
			c.epochs = make([]RetryEpoch, 0, max(2*cap(c.epochs), size, minEpochSlab))
		}
		at := len(c.epochs)
		c.epochs = c.epochs[:at+size]
		w := c.epochs[at : at+n : at+size]
		copy(w, t.Retries)
		t.Retries = w
	}
	t.Retries = append(t.Retries, ep)
}

func isWriteBack(kind uint8) bool {
	return bus.Kind(kind) == bus.WriteLine || bus.Kind(kind) == bus.WriteLineInv
}

// HandleEvent consumes the coherence event stream.  Subscribe it to the
// platform's event sink; it relies only on the Txn ids the bus stamps.
func (c *Collector) HandleEvent(r *event.Record) {
	if c == nil {
		return
	}
	switch r.Kind {
	case event.BusRequest:
		if r.Txn == 0 {
			return
		}
		if len(c.txns) >= c.maxTxns || r.Txn != uint64(len(c.txns))+1 {
			c.dropped++
			return
		}
		if len(c.txns) == cap(c.txns) {
			c.txns = slices.Grow(c.txns, len(c.txns))
		}
		c.txns = append(c.txns, Txn{ID: r.Txn, Master: r.Core, Kind: r.BusKind, Addr: r.Addr, Submit: r.Cycle})
		if isWriteBack(r.BusKind) {
			base := r.Addr & c.lineMask
			c.openWB[base] = r.Txn
			c.resolveDrain(base, r.Txn)
		}
	case event.BusGrant:
		if t := c.get(r.Txn); t != nil {
			t.Grant = r.Cycle
		}
	case event.Retry:
		t := c.get(r.Txn)
		if t == nil {
			return
		}
		ep := RetryEpoch{Cycle: r.Cycle, Drain: r.Drain}
		if r.Drain {
			base := r.Addr & c.lineMask
			if wb := c.openWB[base]; wb != 0 && wb != r.Txn {
				// The draining write-back is already queued (eviction in
				// flight): resolve the edge immediately.
				ep.Cause = wb
			} else {
				// The flush has not been submitted yet (snoop push or ISR
				// drain still pending): defer to the next write-back on
				// this base.
				c.wantDrain[base] = append(c.wantDrain[base], r.Txn)
			}
		}
		c.addRetry(t, ep)
	case event.Drain:
		base := r.Addr & c.lineMask
		wb := r.Txn
		if wb == 0 {
			wb = c.openWB[base]
		}
		if wb != 0 {
			c.resolveDrain(base, wb)
		}
		if c.openWB[base] == wb {
			delete(c.openWB, base)
		}
	case event.BusComplete:
		if t := c.get(r.Txn); t != nil {
			t.Complete = r.Cycle
			t.Done = true
		}
		if isWriteBack(r.BusKind) {
			if base := r.Addr & c.lineMask; c.openWB[base] == r.Txn {
				delete(c.openWB, base)
			}
		}
	}
}

// resolveDrain links every transaction waiting on a drain of base to the
// write-back wb.
func (c *Collector) resolveDrain(base uint32, wb uint64) {
	waiting := c.wantDrain[base]
	if len(waiting) == 0 {
		return
	}
	for _, id := range waiting {
		if id == wb {
			continue
		}
		t := c.get(id)
		if t == nil {
			continue
		}
		for i := len(t.Retries) - 1; i >= 0; i-- {
			if t.Retries[i].Drain && t.Retries[i].Cause == 0 {
				t.Retries[i].Cause = wb
				break
			}
		}
	}
	c.wantDrain[base] = waiting[:0]
}

// Finish links the profile ledger's stall spans to the transactions they
// block on: each span gets the same-master transaction with the largest
// interval overlap.  end is the run's final cycle (open transactions are
// treated as running to end).  The platform calls Finish once, after
// profile.Ledger.Finish.
func (c *Collector) Finish(stalls []profile.Span, end uint64) {
	if c == nil || c.finished {
		return
	}
	c.finished = true
	// Index each master's transactions in submission order, counting per
	// master and then filling: master m's txns indexes are
	// byMaster[first[m]:first[m+1]].  Stalling cores with no transaction
	// get an empty range.
	masters := 0
	for i := range c.txns {
		masters = max(masters, c.txns[i].Master+1)
	}
	for _, s := range stalls {
		masters = max(masters, s.Core+1)
	}
	first := make([]int, masters+1)
	for i := range c.txns {
		first[c.txns[i].Master+1]++
	}
	for m := 1; m <= masters; m++ {
		first[m] += first[m-1]
	}
	cursors := make([]int, masters)
	copy(cursors, first)
	byMaster := make([]int32, len(c.txns))
	for i := range c.txns {
		m := c.txns[i].Master
		byMaster[cursors[m]] = int32(i)
		cursors[m]++
	}
	// Per-core cursor over the master's submission-ordered transactions;
	// spans arrive in per-core time order, so each list is walked once.
	copy(cursors, first)
	c.links = make([]StallLink, 0, len(stalls))
	for _, s := range stalls {
		if s.End > end {
			s.End = end
		}
		if s.Start >= s.End {
			continue
		}
		link := StallLink{Core: s.Core, Cause: s.Cause, Start: s.Start, End: s.End}
		i, last := cursors[s.Core], first[s.Core+1]
		for ; i < last; i++ {
			t := &c.txns[byMaster[i]]
			tEnd := t.Complete
			if !t.Done {
				tEnd = end
			}
			if tEnd > s.Start {
				break
			}
		}
		cursors[s.Core] = i
		var best, bestID uint64
		for j := i; j < last; j++ {
			t := &c.txns[byMaster[j]]
			if t.Submit >= s.End {
				break
			}
			tEnd := t.Complete
			if !t.Done {
				tEnd = end
			}
			lo, hi := t.Submit, tEnd
			if s.Start > lo {
				lo = s.Start
			}
			if s.End < hi {
				hi = s.End
			}
			if hi > lo && hi-lo > best {
				best, bestID = hi-lo, t.ID
			}
		}
		link.Txn = bestID
		c.links = append(c.links, link)
	}
}

// Edges materialises the causal edges of the DAG: retry→drain (from resolved
// retry epochs) and complete→resume (from stall links whose blocking
// transaction completed inside the span).  Call after Finish.
func (c *Collector) Edges() []Edge {
	if c == nil {
		return nil
	}
	var out []Edge
	for i := range c.txns {
		t := &c.txns[i]
		for _, ep := range t.Retries {
			if ep.Cause == 0 {
				continue
			}
			wb := c.get(ep.Cause)
			if wb == nil || !wb.Done || wb.Complete < ep.Cycle {
				continue
			}
			out = append(out, Edge{
				Kind: EdgeRetryDrain, From: ep.Cycle, To: wb.Complete,
				FromMaster: t.Master, ToMaster: wb.Master, Txn: t.ID, Cause: wb.ID,
			})
		}
	}
	for _, l := range c.links {
		t := c.get(l.Txn)
		if t == nil || !t.Done || t.Complete < l.Start || t.Complete > l.End {
			continue
		}
		out = append(out, Edge{
			Kind: EdgeCompleteResume, From: t.Complete, To: l.End,
			FromMaster: t.Master, Core: l.Core, Txn: t.ID,
		})
	}
	return out
}

// WriteJSONL exports the collected spans as one JSON object per line: a
// "txn" row per transaction (lifecycle cycles plus retry epochs with causal
// drain links) followed by a "stall" row per linked stall span.
func (c *Collector) WriteJSONL(w io.Writer) error {
	if c == nil {
		return nil
	}
	for i := range c.txns {
		t := &c.txns[i]
		if _, err := fmt.Fprintf(w, `{"row":"txn","txn":%d,"master":%d,"op":%q,"addr":"0x%08x","submit":%d,"grant":%d,"complete":%d,"done":%v`,
			t.ID, t.Master, bus.Kind(t.Kind).String(), t.Addr, t.Submit, t.Grant, t.Complete, t.Done); err != nil {
			return fmt.Errorf("span: jsonl write: %w", err)
		}
		if len(t.Retries) > 0 {
			if _, err := io.WriteString(w, `,"retries":[`); err != nil {
				return fmt.Errorf("span: jsonl write: %w", err)
			}
			for j, ep := range t.Retries {
				sep := ""
				if j > 0 {
					sep = ","
				}
				if _, err := fmt.Fprintf(w, `%s{"cycle":%d,"drain":%v,"cause":%d}`, sep, ep.Cycle, ep.Drain, ep.Cause); err != nil {
					return fmt.Errorf("span: jsonl write: %w", err)
				}
			}
			if _, err := io.WriteString(w, `]`); err != nil {
				return fmt.Errorf("span: jsonl write: %w", err)
			}
		}
		if _, err := io.WriteString(w, "}\n"); err != nil {
			return fmt.Errorf("span: jsonl write: %w", err)
		}
	}
	for _, l := range c.links {
		if _, err := fmt.Fprintf(w, `{"row":"stall","core":%d,"cause":%q,"start":%d,"end":%d,"txn":%d}`+"\n",
			l.Core, l.Cause.String(), l.Start, l.End, l.Txn); err != nil {
			return fmt.Errorf("span: jsonl write: %w", err)
		}
	}
	return nil
}
