// Package snooplogic implements the external snoop logic of the paper's
// Figure 3: the hardware block that gives snooping capability to a
// processor with no native cache coherence support (the ARM920T).
//
// The block keeps a duplicate tag store — the TAG CAM — of the processor's
// data cache by watching the bus transactions the processor itself
// initiates: a line fill inserts a tag, and a write-back (eviction, drain,
// or software clean) removes it.  Clean lines the processor drops silently
// leave *stale* entries behind; those are safe (the CAM is a superset of
// the cache contents) and merely cost a spurious interrupt when hit.
//
// When another master's transaction matches the CAM, the snoop logic ARTRYs
// the transaction and raises the fast interrupt (nFIQ).  The interrupt
// service routine on the processor drains the hit line if modified or
// invalidates it if clean, then signals completion; only then does the
// retried transaction succeed.
package snooplogic

import (
	"sort"

	"hetcc/internal/bus"
	"hetcc/internal/event"
	"hetcc/internal/metrics"
	"hetcc/internal/trace"
)

// Stats collects snoop-logic activity counters.
type Stats struct {
	// Inserts and Removes count TAG CAM updates.
	Inserts uint64
	Removes uint64
	// Hits counts snoop hits (ARTRY + nFIQ raised).
	Hits uint64
	// SpuriousHits counts hits on stale CAM entries — the line had been
	// silently dropped by the cache, so the ISR found nothing to drain.
	SpuriousHits uint64
	// RetriesWhilePending counts ARTRYs issued on re-snoops of a line
	// whose ISR is still outstanding.
	RetriesWhilePending uint64
	// OverflowFlushes counts CAM-capacity overflows resolved by flushing
	// the oldest entry through the ISR.
	OverflowFlushes uint64
}

// FIQRaiser receives the fast-interrupt requests the snoop logic generates.
// The CPU model implements it.
type FIQRaiser interface {
	RaiseFIQ(lineBase uint32)
}

// SnoopLogic is the TAG CAM block for one coherence-less processor.
type SnoopLogic struct {
	name      string
	owner     int // the processor's bus master id (its own traffic is not snooped)
	bus       *bus.Bus
	lineBytes uint32
	capacity  int // maximum CAM entries (0 = unbounded)
	cam       map[uint32]bool
	camOrder  []uint32 // insertion order for overflow eviction
	pending   map[uint32]bool
	// retried records which master's transaction each pending ISR is
	// blocking, so the arbiter can hand it the bus as soon as the ISR
	// completes.
	retried map[uint32]int
	fiq     FIQRaiser
	log     *trace.Log
	stats   Stats

	// hitCycle records the bus cycle of each outstanding snoop hit so the
	// drain-duration histogram can be observed at ISR completion.
	hitCycle map[uint32]uint64
	mHits    *metrics.Counter
	mDrain   *metrics.Histogram

	// nil-safe coherence event sink (see SetEvents)
	events *event.Sink
}

// New creates the snoop logic for the processor whose cache controller owns
// bus master id owner, and wires it to b: it snoops every other master's
// coherent transactions and observes the owner's completions to maintain
// the CAM.
func New(name string, b *bus.Bus, owner int, lineBytes int, fiq FIQRaiser, log *trace.Log) *SnoopLogic {
	sl := &SnoopLogic{
		name:      name,
		owner:     owner,
		bus:       b,
		lineBytes: uint32(lineBytes),
		cam:       make(map[uint32]bool),
		pending:   make(map[uint32]bool),
		retried:   make(map[uint32]int),
		hitCycle:  make(map[uint32]uint64),
		fiq:       fiq,
		log:       log,
	}
	b.AddSnooper(owner, sl)
	b.AddObserver(sl.observe)
	return sl
}

// SetFIQRaiser installs the interrupt target (the platform wires the CPU
// after construction).
func (sl *SnoopLogic) SetFIQRaiser(f FIQRaiser) { sl.fiq = f }

// SetCapacity bounds the TAG CAM to n entries (hardware CAMs are sized to
// the shadowed cache).  Zero means unbounded.
func (sl *SnoopLogic) SetCapacity(n int) { sl.capacity = n }

// Stats returns a copy of the counters.
func (sl *SnoopLogic) Stats() Stats { return sl.stats }

// SetMetrics attaches the snoop logic to a metrics registry.  A nil
// registry leaves the instruments nil (no-op).
func (sl *SnoopLogic) SetMetrics(r *metrics.Registry) {
	sl.mHits = r.Counter("snoop.cam.hits")
	sl.mDrain = r.Histogram("snoop.drain.buscycles")
}

// SetEvents attaches the snoop logic to a coherence event sink.  A nil sink
// makes every emission a single nil check.
func (sl *SnoopLogic) SetEvents(s *event.Sink) { sl.events = s }

func (sl *SnoopLogic) align(addr uint32) uint32 {
	return addr &^ (sl.lineBytes - 1)
}

// SnoopBus implements bus.Snooper: ARTRY any transaction touching a line
// the shadowed cache (may) hold, raising nFIQ on the first hit.
func (sl *SnoopLogic) SnoopBus(t *bus.Transaction) bus.SnoopReply {
	base := sl.align(t.Addr)
	if sl.pending[base] {
		sl.stats.RetriesWhilePending++
		sl.retried[base] = t.Master
		return bus.SnoopReply{Retry: true, Drain: true}
	}
	if !sl.cam[base] {
		return bus.SnoopReply{}
	}
	sl.stats.Hits++
	sl.mHits.Inc()
	// The ISR drains a modified line or invalidates a clean one: either way
	// the shadowed copy leaves the cache (inval) behind a drain-and-retry
	// (flush); the TAG CAM has no wrapper, so converted is never set.
	sl.events.SnoopHit(sl.owner, base, t.Kind.CoherenceOp(), t.Master, true, false, true, false)
	sl.pending[base] = true
	sl.hitCycle[base] = sl.bus.Cycle()
	sl.retried[base] = t.Master
	if sl.log.Enabled() {
		sl.log.Addf(sl.name, "snoop hit 0x%08x -> nFIQ", base)
	}
	if sl.fiq != nil {
		sl.fiq.RaiseFIQ(base)
	}
	return bus.SnoopReply{Retry: true, Drain: true}
}

// observe watches the owner's completed transactions to shadow the cache
// contents.
func (sl *SnoopLogic) observe(t *bus.Transaction, _ bus.Result) {
	if t.Master != sl.owner {
		return
	}
	base := sl.align(t.Addr)
	switch t.Kind {
	case bus.ReadLine, bus.ReadLineOwn:
		if !sl.cam[base] {
			if sl.capacity > 0 && len(sl.cam) >= sl.capacity {
				sl.overflow()
			}
			sl.cam[base] = true
			sl.camOrder = append(sl.camOrder, base)
			sl.stats.Inserts++
		}
	case bus.WriteLine:
		// In this simulator a write-back always means the line left the
		// cache (eviction, snoop drain via ISR, or software clean).
		if sl.cam[base] {
			delete(sl.cam, base)
			sl.stats.Removes++
		}
	}
}

// overflow resolves a full TAG CAM: the oldest entry — necessarily stale or
// cold — is flushed through the interrupt service routine, which drains or
// invalidates the line if the cache still holds it and clears the entry.
// This keeps the CAM a strict superset of the cache contents even though
// clean evictions are invisible on the bus.
func (sl *SnoopLogic) overflow() {
	for len(sl.camOrder) > 0 {
		victim := sl.camOrder[0]
		sl.camOrder = sl.camOrder[1:]
		if !sl.cam[victim] || sl.pending[victim] {
			continue
		}
		sl.stats.OverflowFlushes++
		sl.pending[victim] = true
		sl.hitCycle[victim] = sl.bus.Cycle()
		if sl.fiq != nil {
			sl.fiq.RaiseFIQ(victim)
		}
		return
	}
}

// NoteInvalidate is the snoop logic's control port: software (the ISR, or a
// program's invalidate instruction) reports that it dropped a clean line,
// so the CAM entry can be cleared without a bus write-back.
func (sl *SnoopLogic) NoteInvalidate(addr uint32) {
	base := sl.align(addr)
	if sl.cam[base] {
		delete(sl.cam, base)
		sl.stats.Removes++
	}
}

// Complete is called by the ISR when it has drained or invalidated the hit
// line: the ARTRY condition clears and the retried master can proceed.  If
// the line was already gone from the cache the hit was spurious.
func (sl *SnoopLogic) Complete(lineBase uint32, wasResident bool) {
	base := sl.align(lineBase)
	delete(sl.pending, base)
	if start, ok := sl.hitCycle[base]; ok {
		sl.mDrain.Observe(sl.bus.Cycle() - start)
		delete(sl.hitCycle, base)
	}
	sl.events.Drain(sl.owner, base, 0)
	if m, ok := sl.retried[base]; ok {
		// Hand the bus straight back to the master the ISR was blocking so
		// its retry wins before this core can re-cache the line.
		sl.bus.PreferNext(m)
		delete(sl.retried, base)
	}
	if sl.cam[base] {
		delete(sl.cam, base)
		sl.stats.Removes++
	}
	if !wasResident {
		sl.stats.SpuriousHits++
	}
	if sl.log.Enabled() {
		sl.log.Addf(sl.name, "ISR complete 0x%08x (resident=%v)", base, wasResident)
	}
}

// PendingLines returns the lines with an outstanding ISR, sorted (tests).
func (sl *SnoopLogic) PendingLines() []uint32 {
	return sortedKeys(sl.pending)
}

// CAMLines returns the shadowed tags, sorted (tests and the TAG-CAM mirror
// property).
func (sl *SnoopLogic) CAMLines() []uint32 {
	return sortedKeys(sl.cam)
}

// Holds reports whether the CAM contains the line holding addr.
func (sl *SnoopLogic) Holds(addr uint32) bool { return sl.cam[sl.align(addr)] }

func sortedKeys(m map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
