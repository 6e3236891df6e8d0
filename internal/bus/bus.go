// Package bus models the shared system bus of the paper's SoC platform — an
// AMBA ASB-like single-master-at-a-time pipelined bus with snooping.
//
// The model reproduces the handshake structure the paper's wrappers rely on:
//
//   - arbitration (BREQ/BGNT): one bus cycle;
//   - an address phase in which every other master's snooper (through its
//     wrapper) observes the transaction: one bus cycle;
//   - ARTRY-style retry: a snooper holding the line dirty (or an external
//     snoop logic waiting on an interrupt service routine) aborts the
//     transaction; the master re-queues it and the snooper drains first
//     (the paper's ARTRY/HITM/BOFF sequence);
//   - a data phase whose length comes from the memory controller timing, a
//     mapped device, or a cache-to-cache supply.
//
// Masters own FIFO request queues.  A retried transaction returns to the
// *head* of its master's queue, and a snoop-triggered flush is queued
// *behind* it — this mirrors the PowerPC 60x behaviour the paper identifies
// as the root of the hardware-deadlock problem ("it is supposed to retry the
// transaction ... instead of draining out the lock variables").  The bus
// detects the resulting livelock by counting consecutive aborted tenures.
package bus

import (
	"errors"
	"fmt"
	"math/bits"

	"hetcc/internal/coherence"
	"hetcc/internal/event"
	"hetcc/internal/memory"
	"hetcc/internal/sim"
)

// Kind enumerates bus transaction kinds.
type Kind uint8

const (
	// ReadLine is a cache-line fill (maps to coherence.BusRd).
	ReadLine Kind = iota
	// ReadLineOwn is a read-for-ownership line fill (coherence.BusRdX).
	ReadLineOwn
	// Upgrade is an address-only ownership upgrade (coherence.BusUpgr).
	Upgrade
	// WriteLine is a cache-line write-back.  Write-backs are not snooped:
	// only the single owner of a dirty line can issue one.
	WriteLine
	// ReadWord is an uncached single-word read (snooped as BusRd).
	ReadWord
	// WriteWord is an uncached single-word write (snooped as BusRdX).
	WriteWord
	// RMWWord is an atomic uncached read-modify-write (test-and-set) used
	// by the lock subsystem (snooped as BusRdX).
	RMWWord
	// UpdateWord is a Dragon bus update: a single-word broadcast that
	// sharers patch in place (snooped as BusUpd).  Memory is NOT written —
	// the owning (Sm/M) cache writes the line back on eviction.
	UpdateWord
	// WriteLineInv is a full-line write by a non-caching master (the DMA
	// engine): memory is written and every cached copy is invalidated
	// (snooped as BusRdX; a dirty owner drains first, then the write
	// supersedes it on retry).
	WriteLineInv
)

// String returns a short mnemonic.
func (k Kind) String() string {
	switch k {
	case ReadLine:
		return "RdLine"
	case ReadLineOwn:
		return "RdLineX"
	case Upgrade:
		return "Upgr"
	case WriteLine:
		return "WrLine"
	case ReadWord:
		return "RdWord"
	case WriteWord:
		return "WrWord"
	case RMWWord:
		return "RMW"
	case UpdateWord:
		return "UpdWord"
	case WriteLineInv:
		return "WrLineInv"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Snooped reports whether other masters' snoopers observe this kind.
func (k Kind) Snooped() bool { return k != WriteLine }

// CoherenceOp maps the transaction kind to the snoop event presented to
// coherence state machines.  Wrappers may further convert BusRd to BusRdX.
func (k Kind) CoherenceOp() coherence.BusOp {
	switch k {
	case ReadLine, ReadWord:
		return coherence.BusRd
	case Upgrade:
		return coherence.BusUpgr
	case UpdateWord:
		return coherence.BusUpd
	default:
		return coherence.BusRdX
	}
}

// Transaction is one bus request.  Line kinds use Addr (line-aligned) and
// Words; word kinds use Addr and Val.
type Transaction struct {
	Master int
	Kind   Kind
	Addr   uint32
	Words  int
	// Data carries the write-back payload for WriteLine and receives the
	// fill payload for ReadLine/ReadLineOwn.
	Data []uint32
	// Val is the store value for WriteWord and RMWWord.
	Val uint32

	retries int
	// submitCycle is the bus cycle at which the transaction entered its
	// master's queue (the Wait of its BusGrant and BusComplete records).
	submitCycle uint64
	// id is the bus-assigned monotonically increasing transaction id,
	// stamped at Submit/SubmitFlush.  Masters reuse Transaction structs, so
	// each resubmission of the same struct is a new logical transaction with
	// a fresh id.
	id uint64
}

// Reset readies a reused Transaction for a new request: it sets every
// request field and clears the retry count.  The id and submit cycle are
// stamped by the next Submit or SubmitFlush.
func (t *Transaction) Reset(master int, kind Kind, addr uint32, words int, val uint32, data []uint32) {
	t.Master, t.Kind, t.Addr, t.Words, t.Val, t.Data = master, kind, addr, words, val, data
	t.retries = 0
}

// Retries reports how many times the transaction has been ARTRYed.
func (t *Transaction) Retries() int { return t.retries }

// ID returns the transaction's bus-assigned id (monotonically increasing
// from 1 in submission order; 0 before the first submit).
func (t *Transaction) ID() uint64 { return t.id }

// Result is delivered to the master on transaction completion.
type Result struct {
	// Shared is the bus shared-signal value sampled during the address
	// phase, after any wrapper override on the snooper side.  The master's
	// own wrapper may override it again before the cache sees it.
	Shared bool
	// Supplied indicates a cache-to-cache transfer served the data.
	Supplied bool
	// Data is the fill payload for line reads.  It aliases a pooled buffer
	// that the bus reclaims as soon as the completion callback (and any
	// observers) return — consumers that keep fill data must copy it out
	// during the callback.
	Data []uint32
	// Val is the read value for ReadWord and the *old* value for RMWWord.
	Val uint32
}

// SnoopReply is a snooper's response during the address phase.
type SnoopReply struct {
	// Shared: the snooper retains a valid copy (bus SHD signal).
	Shared bool
	// Retry: the transaction must be aborted and retried (ARTRY).  The
	// snooper is expected to drain the line (or finish its ISR) before the
	// retry can succeed.
	Retry bool
	// Supply: the snooper provides the line cache-to-cache.
	Supply bool
	// Data is the supplied line when Supply is set.  The bus copies it into
	// a buffer of its own before SnoopBus's caller returns, so the reply may
	// alias the snooper's live line storage — no defensive copy needed.
	Data []uint32
	// Drain qualifies Retry: the snooper asserted it because a dirty-line
	// drain (flush in flight or pending ISR) must finish before the
	// transaction can succeed.  The stall profiler uses it to separate
	// drain-induced retries from plain arbitration ping-pong.
	Drain bool
}

// Snooper observes other masters' transactions during the address phase.
type Snooper interface {
	SnoopBus(t *Transaction) SnoopReply
}

// Device is a memory-mapped bus slave (e.g. the hardware lock register).
type Device interface {
	// Contains reports whether the device decodes addr.
	Contains(addr uint32) bool
	// Access services the transaction, returning the data-phase latency in
	// bus cycles.
	Access(t *Transaction) (latency int, res Result)
}

// Observer is notified after every completed transaction (used by the
// external snoop logic to shadow the ARM's cache contents, and by tests).
type Observer func(t *Transaction, res Result)

// ErrHardwareDeadlock is reported when the bus livelocks: an unbroken run of
// aborted tenures with no forward progress, the condition the paper names
// the "hardware deadlock problem" (Figure 4).
var ErrHardwareDeadlock = errors.New("bus: hardware deadlock (unbroken retry livelock)")

type completion func(Result)

type pending struct {
	txn  *Transaction
	done completion
}

type masterState struct {
	name  string
	queue pendingRing
	// holdUntil stalls the master's next grant until this bus cycle — the
	// back-off a real master applies after an ARTRY before re-requesting.
	holdUntil uint64
	// latency is added to every completed tenure's data phase — the
	// paper's wrapper protocol-conversion cost on this master's interface.
	latency int
}

// Config holds bus construction parameters.
type Config struct {
	// Timing is the memory controller timing (paper Table 4 / Figure 8).
	Timing memory.Timing
	// C2CFirst/C2CPerWord set cache-to-cache supply latency.  The paper's
	// platforms do not exercise this (only MOESI does), but the simulator
	// supports homogeneous MOESI systems.
	C2CFirst   int
	C2CPerWord int
	// DeadlockThreshold is the number of consecutive aborted tenures after
	// which the bus declares a hardware deadlock.  Zero selects a default.
	DeadlockThreshold int
	// RetryBackoff is how many bus cycles an ARTRYed master waits before
	// re-requesting.  Zero selects a default of 4.
	RetryBackoff int
	// Pipelined overlaps the next tenure's arbitration/address phase with
	// the current data phase (AHB-style), saving two bus cycles per
	// non-conflicting transaction.  The paper's ASB is not pipelined this
	// way; the option exists for the ablation study.
	Pipelined bool
}

// Stats aggregates bus activity counters.
type Stats struct {
	Tenures      uint64 // granted tenures (including aborted)
	Completed    uint64 // transactions completed
	Aborted      uint64 // tenures aborted by ARTRY
	BusyCycles   uint64 // bus cycles with a tenure in progress
	IdleCycles   uint64 // bus cycles with no tenure
	SharedSeen   uint64 // completions with the shared signal asserted
	Supplied     uint64 // cache-to-cache transfers
	WordReads    uint64
	WordWrites   uint64
	RMWs         uint64
	LineFills    uint64
	LineUpgrades uint64
	WriteBacks   uint64
	WordUpdates  uint64
	Overlapped   uint64 // tenures whose address phase overlapped a data phase
}

// Bus is the shared system bus.  Create with New, then register masters,
// snoopers and devices before simulation starts.
type Bus struct {
	cfg     Config
	mem     *memory.Memory
	masters []*masterState
	// snoopers[i] holds the snoopers owned by master i (skipped for its
	// own transactions).
	snoopers [][]Snooper
	// fanout[i] is the flattened snoop set consulted for master i's
	// transactions — every snooper *not* owned by i, in registration order.
	// Precomputed (FinalizeTopology, or lazily on first use after a
	// registration) so each broadcast walks one flat slice instead of
	// filtering the per-owner lists.
	fanout      [][]Snooper
	fanoutStale bool
	devices     []Device
	obs         []Observer

	// tenure state
	busy      bool
	remaining int
	// cur is the tenure on the bus; cur.p.txn is nil when there is nothing
	// to complete (an aborted tenure).
	cur prepared
	// curMaster/curKind/curAddr/curAbort identify the tenure on the bus.
	// They are written only by grant and at promotion of an overlapped
	// tenure, never by an overlapped address phase (pipelined mode), so
	// Probe and the overlap exclusion see the tenure in its data phase.
	curMaster int
	curKind   Kind
	curAddr   uint32
	curAbort  bool
	// curStart is the engine cycle the tenure on the bus began.
	curStart uint64

	// fills recycles Result.Data buffers across tenures (see linePool).
	fills linePool

	lastGranted   int
	preferredNext int // master to grant next after an ARTRY (BOFF), -1 none

	consecutiveAborts int
	deadlock          bool
	onDeadlock        func(consecutiveAborts, retries int)

	cycle uint64 // bus cycles elapsed
	// next is the overlapped tenure waiting for the data phase in progress
	// (pipelined mode); next.p.txn is nil when there is none.
	next prepared

	// txnSeq is the monotonically increasing transaction id counter; the
	// first submitted transaction gets id 1.
	txnSeq uint64

	// nil-safe coherence event sink (see SetEvents): the bus's only
	// instrumentation output besides the OnDeadlock hook
	events *event.Sink

	// event-scheduler binding (see BindScheduler): sched wakes the bus when
	// work is submitted and names the horizon of lazy edge sync, div is the
	// bus clock divisor and shift its log2 when it is a power of two (-1
	// otherwise).  All unset under the tick scheduler.
	sched *sim.Handle
	div   uint64
	shift int

	stats Stats
}

// New creates a bus backed by mem with the given configuration.
func New(cfg Config, mem *memory.Memory) *Bus {
	if cfg.DeadlockThreshold <= 0 {
		cfg.DeadlockThreshold = 512
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 4
	}
	if cfg.C2CFirst <= 0 {
		cfg.C2CFirst = 2
	}
	if cfg.C2CPerWord <= 0 {
		cfg.C2CPerWord = 1
	}
	return &Bus{
		cfg:           cfg,
		mem:           mem,
		preferredNext: -1,
	}
}

// AddMaster registers a bus master and returns its id.
func (b *Bus) AddMaster(name string) int {
	b.masters = append(b.masters, &masterState{name: name})
	b.snoopers = append(b.snoopers, nil)
	b.fanoutStale = true
	return len(b.masters) - 1
}

// MasterName returns the registered name of master id.
func (b *Bus) MasterName(id int) string { return b.masters[id].name }

// SetMasterLatency charges extra bus cycles on every completed tenure of
// master id, modelling the handshake-conversion cost of the wrapper between
// the processor's native bus and the shared ASB.
func (b *Bus) SetMasterLatency(id, busCycles int) {
	if busCycles < 0 {
		busCycles = 0
	}
	b.masters[id].latency = busCycles
}

// AddSnooper attaches a snooper owned by master owner.  The snooper is not
// consulted for transactions initiated by its own master.
func (b *Bus) AddSnooper(owner int, s Snooper) {
	b.snoopers[owner] = append(b.snoopers[owner], s)
	b.fanoutStale = true
}

// FinalizeTopology precomputes the per-master snoop fan-out sets.  Platform
// construction calls it once after all masters and snoopers are registered;
// late registrations are still legal (the sets rebuild lazily on the next
// broadcast), so this is a hot-loop optimisation, not an API obligation.
func (b *Bus) FinalizeTopology() { b.rebuildFanout() }

func (b *Bus) rebuildFanout() {
	if cap(b.fanout) < len(b.masters) {
		b.fanout = make([][]Snooper, len(b.masters))
	}
	b.fanout = b.fanout[:len(b.masters)]
	for i := range b.fanout {
		b.fanout[i] = b.fanout[i][:0]
		for owner, list := range b.snoopers {
			if owner == i {
				continue
			}
			b.fanout[i] = append(b.fanout[i], list...)
		}
	}
	b.fanoutStale = false
}

// AddDevice registers a memory-mapped slave.  Devices are decoded before
// main memory.
func (b *Bus) AddDevice(d Device) { b.devices = append(b.devices, d) }

// AddObserver registers a completion observer.
func (b *Bus) AddObserver(o Observer) { b.obs = append(b.obs, o) }

// OnDeadlock installs a hook invoked once when livelock is detected, with
// the run of consecutive aborted tenures and the retry count of the
// transaction that tripped the detector.
func (b *Bus) OnDeadlock(f func(consecutiveAborts, retries int)) { b.onDeadlock = f }

// Deadlocked reports whether the livelock detector has fired.
func (b *Bus) Deadlocked() bool { return b.deadlock }

// Stats returns a copy of the accumulated counters.
func (b *Bus) Stats() Stats {
	b.syncExternal()
	return b.stats
}

// Timing returns the memory timing in force.
func (b *Bus) Timing() memory.Timing { return b.cfg.Timing }

// Cycle reports the number of bus cycles elapsed (the bus-local clock; the
// TAG-CAM snoop logic uses it to time its ISR drains).
func (b *Bus) Cycle() uint64 {
	b.syncExternal()
	return b.cycle
}

// BindScheduler attaches the bus to the engine's event scheduler: h is the
// bus's registration handle (Submit wakes the bus through it).  Call it
// only when the event scheduler is in force; an unbound bus behaves exactly
// as before.
func (b *Bus) BindScheduler(h *sim.Handle) {
	b.sched = h
	b.div = h.Div()
	b.shift = -1
	if b.div&(b.div-1) == 0 {
		b.shift = bits.TrailingZeros64(b.div)
	}
}

// syncExternal brings the bus-cycle counter current for a reader outside
// the bus's own tick: through the current engine cycle for a reader
// evaluated after the bus in this cycle's pass, through the cycle before
// for any other, exactly the edges a tick-mode bus would have taken.
func (b *Bus) syncExternal() {
	if b.sched == nil {
		return
	}
	if through, ok := b.sched.Horizon(); ok {
		b.sync(through)
	}
}

// sync bulk-applies every bus clock edge at engine cycles <= x.  Skipped
// edges are, by scheduling invariant, pure bookkeeping: while busy (and not
// pipelined) each one decrements the data-phase counter without reaching
// zero — the engine always ticks the bus for real at its completion edge —
// and while idle each one would only have found no grantable master.
func (b *Bus) sync(x uint64) {
	if x < b.cycle*b.div {
		return // no unapplied edge at or before x; skips the count
	}
	// Bus edges lie at 0, div, 2*div, ...: x/div+1 of them through x, at
	// least one past b.cycle here.  A shift counts them for a power-of-two
	// divisor without a division.
	var target uint64
	if b.shift >= 0 {
		target = x>>uint(b.shift) + 1
	} else {
		target = x/b.div + 1
	}
	k := target - b.cycle
	b.cycle = target
	if b.busy {
		if b.cfg.Pipelined || uint64(b.remaining) <= k {
			panic("bus: event-mode sync crossed a tenure boundary")
		}
		b.stats.BusyCycles += k
		b.remaining -= int(k)
		return
	}
	b.stats.IdleCycles += k
}

// CatchUp implements sim.CatchUpper: apply every bus edge <= through.
func (b *Bus) CatchUp(through uint64) {
	if b.sched != nil {
		b.sync(through)
	}
}

// NextWake implements sim.Waker, counting bus edges.  A busy non-pipelined
// bus needs its next real tick only at the data phase's completion edge; a
// pipelined bus overlaps arbitration with data and is never skipped
// (ablation mode).  An idle bus with queued work sleeps until the earliest
// retry back-off expires; an idle bus with empty queues is dormant until a
// Submit wakes it.
func (b *Bus) NextWake(uint64) (uint64, bool) {
	if b.busy {
		if b.cfg.Pipelined {
			return 1, true
		}
		return uint64(b.remaining), true
	}
	var earliest uint64
	any := false
	for _, m := range b.masters {
		if m.queue.len() == 0 {
			continue
		}
		if !any || m.holdUntil < earliest {
			earliest = m.holdUntil
			any = true
		}
	}
	if !any {
		return 0, false
	}
	if earliest <= b.cycle+1 {
		return 1, true // a master is grantable at the next edge
	}
	// The tick that just ran left the bus at cycle b.cycle; the tick whose
	// post-increment bus cycle reaches `earliest` is that many edges on.
	return earliest - b.cycle, true
}

// wakeSched asks the scheduler for a tick at the earliest feasible bus edge
// (no-op in tick mode).  A busy non-pipelined bus is not woken: its
// completion edge is already pending (NextWake), and NextWake at that edge
// finds the new work in the queues, so an earlier tick would only count a
// data-phase cycle.  A pipelined bus may overlap the new work with the data
// phase, so it is always woken.
func (b *Bus) wakeSched() {
	if b.sched != nil && (!b.busy || b.cfg.Pipelined) {
		b.sched.Wake(b.sched.Now())
	}
}

// SetEvents attaches the bus to a coherence event sink.  A nil sink (or
// never calling SetEvents) makes every emission a single nil check.
func (b *Bus) SetEvents(s *event.Sink) { b.events = s }

// Submit queues a transaction for master t.Master.  done may be nil.
func (b *Bus) Submit(t *Transaction, done func(Result)) {
	if t.Master < 0 || t.Master >= len(b.masters) {
		panic(fmt.Sprintf("bus: submit from unknown master %d", t.Master))
	}
	b.syncExternal() // the skipped edges preceded this submission
	t.submitCycle = b.cycle
	b.txnSeq++
	t.id = b.txnSeq
	b.events.BusRequest(t.Master, uint8(t.Kind), t.Addr, t.id)
	b.masters[t.Master].queue.pushBack(pending{txn: t, done: done})
	b.wakeSched()
}

// SubmitFlush queues a snoop-triggered write-back for master id.  It is
// placed after any retried transaction already at the head of the queue but
// ahead of ordinary pending work, reflecting that a snoop push is serviced
// at the master's earliest opportunity *after* its own pending retry (the
// PowerPC 60x ordering the paper describes).
func (b *Bus) SubmitFlush(t *Transaction, done func(Result)) {
	m := b.masters[t.Master]
	b.syncExternal() // the skipped edges preceded this submission
	t.submitCycle = b.cycle
	b.txnSeq++
	t.id = b.txnSeq
	b.events.BusRequest(t.Master, uint8(t.Kind), t.Addr, t.id)
	idx := 0
	for idx < m.queue.len() && m.queue.at(idx).txn.retries > 0 {
		idx++
	}
	m.queue.insertAt(idx, pending{txn: t, done: done})
	b.wakeSched()
}

// Idle reports whether the bus has no tenure in progress and no queued work.
func (b *Bus) Idle() bool {
	if b.busy {
		return false
	}
	for _, m := range b.masters {
		if m.queue.len() > 0 {
			return false
		}
	}
	return true
}

// Tick advances the bus by one bus cycle.
func (b *Bus) Tick(now uint64) {
	if b.sched != nil && now > 0 {
		b.sync(now - 1) // bulk-apply any skipped edges before this one
	}
	b.cycle++
	if b.busy {
		b.stats.BusyCycles++
		// Pipelined mode: overlap the next tenure's arbitration and
		// address phase with the current data phase, as AHB-class buses
		// do.  Same-granule transactions are excluded so per-line
		// coherence actions stay serialised.
		if b.cfg.Pipelined && b.next.p.txn == nil && b.remaining > 0 {
			if id := b.pickMasterExcludingLine(b.curAddr, b.curMaster); id >= 0 && b.prepare(now, id, &b.next) {
				b.stats.Overlapped++
			}
			// An aborted overlapped tenure consumed only spare address-phase
			// bandwidth.
		}
		b.remaining--
		if b.remaining <= 0 {
			b.complete(now)
			if b.next.p.txn != nil {
				b.cur = b.next
				b.next.p = pending{}
				b.busy = true
				b.remaining = max(b.cur.latency, 1)
				t := b.cur.p.txn
				b.curMaster, b.curKind, b.curAddr, b.curAbort = t.Master, t.Kind, t.Addr, false
				b.curStart = now
			}
		}
		return
	}
	id := b.pickMaster()
	if id < 0 {
		b.stats.IdleCycles++
		return
	}
	b.grant(now, id)
}

// pickMasterExcludingLine is pickMaster restricted to masters whose head
// transaction touches a different 32-byte granule than addr (and is not
// the master currently on the bus, whose requests must stay ordered).
func (b *Bus) pickMasterExcludingLine(addr uint32, curMaster int) int {
	const granule = 32
	ready := func(id int) bool {
		m := b.masters[id]
		if id == curMaster || m.queue.len() == 0 || b.cycle < m.holdUntil {
			return false
		}
		return m.queue.at(0).txn.Addr/granule != addr/granule
	}
	if b.preferredNext >= 0 && ready(b.preferredNext) {
		id := b.preferredNext
		b.preferredNext = -1
		return id
	}
	n := len(b.masters)
	for i := 1; i <= n; i++ {
		id := (b.lastGranted + i) % n
		if ready(id) {
			return id
		}
	}
	return -1
}

func (b *Bus) pickMaster() int {
	ready := func(id int) bool {
		m := b.masters[id]
		return m.queue.len() > 0 && b.cycle >= m.holdUntil
	}
	if b.preferredNext >= 0 && ready(b.preferredNext) {
		id := b.preferredNext
		b.preferredNext = -1
		return id
	}
	n := len(b.masters)
	for i := 1; i <= n; i++ {
		id := (b.lastGranted + i) % n
		if ready(id) {
			return id
		}
	}
	return -1
}

// prepared is a tenure whose address phase (arbitration, snooping, slave
// access) has completed; only the data-phase cycles remain.
type prepared struct {
	p       pending
	res     Result
	latency int
	// buf is the pooled buffer backing res.Data, if any; it travels with the
	// tenure so complete can return it to the pool.
	buf []uint32
}

func (b *Bus) grant(now uint64, id int) {
	// Read before prepare, which leaves b.cur untouched on ARTRY.
	t := b.masters[id].queue.at(0).txn
	ok := b.prepare(now, id, &b.cur)
	b.curMaster, b.curKind, b.curAddr, b.curAbort = id, t.Kind, t.Addr, !ok
	b.busy = true
	b.curStart = now
	if !ok {
		b.remaining = 1 // address phase; the grant consumed the arbitration cycle
		return
	}
	b.remaining = 1 + b.cur.latency // address phase + data; grant was the arbitration cycle
}

// prepare runs the address phase of master id's head transaction and, when
// no snooper ARTRYs it, its slave access, filling pt in place.  It reports
// false for an ARTRYed tenure, whose transaction is back at the head of its
// queue; pt is then left untouched.
func (b *Bus) prepare(now uint64, id int, pt *prepared) bool {
	m := b.masters[id]
	p := m.queue.popFront()
	b.lastGranted = id
	b.stats.Tenures++
	t := p.txn

	// Address phase: present the transaction to the precomputed snoop
	// fan-out of its master and combine the replies.
	var shared, retry, supply, drain bool
	var supplied []uint32
	if t.Kind.Snooped() {
		if b.fanoutStale {
			b.rebuildFanout()
		}
		for _, s := range b.fanout[t.Master] {
			r := s.SnoopBus(t)
			shared = shared || r.Shared
			retry = retry || r.Retry
			drain = drain || r.Drain
			if r.Supply {
				supply = true
				supplied = r.Data
			}
		}
	}

	if retry {
		// ARTRY: abort after arbitration + address phase (2 bus cycles)
		// and put the transaction back at the head of its master's queue.
		t.retries++
		b.stats.Aborted++
		b.consecutiveAborts++
		b.events.Retry(t.Master, uint8(t.Kind), t.Addr, t.retries, drain, t.id)
		m.queue.pushFront(p)
		m.holdUntil = b.cycle + uint64(b.cfg.RetryBackoff)
		// Two livelock signatures: nothing at all completing (the paper's
		// Figure 4 deadlock, both masters stalled), or one master's
		// transaction being retried without bound while others progress
		// (starvation — e.g. a cached lock line ping-ponging through the
		// ISR).  Either way the system has lost forward progress.
		if (b.consecutiveAborts >= b.cfg.DeadlockThreshold || t.retries >= b.cfg.DeadlockThreshold) && !b.deadlock {
			b.deadlock = true
			if b.onDeadlock != nil {
				b.onDeadlock(b.consecutiveAborts, t.retries)
			}
		}
		return false
	}
	b.consecutiveAborts = 0

	// Data phase.
	pt.p = p
	pt.res = Result{Shared: shared}
	pt.buf = nil
	res := &pt.res
	var latency int
	var dev Device
	for _, d := range b.devices {
		if d.Contains(t.Addr) {
			dev = d
			break
		}
	}
	switch {
	case supply && (t.Kind == ReadLine || t.Kind == ReadLineOwn):
		res.Supplied = true
		pt.buf = b.fills.get(t.Words)
		copy(pt.buf, supplied)
		res.Data = pt.buf
		latency = b.cfg.C2CFirst + (t.Words-1)*b.cfg.C2CPerWord
		b.stats.Supplied++
		b.stats.LineFills++
	case dev != nil:
		latency, *res = dev.Access(t)
		res.Shared = shared
		b.countKind(t.Kind)
	default:
		latency = b.memAccess(t, res)
		if t.Kind == ReadLine || t.Kind == ReadLineOwn {
			pt.buf = res.Data
		}
	}
	if shared {
		b.stats.SharedSeen++
	}

	latency += m.latency // wrapper protocol-conversion cost
	// Emitted once the latency is known.  No device emits during its
	// access, so no record lands between the address phase and this one.
	b.events.BusGrant(t.Master, uint8(t.Kind), t.Addr, shared, t.id, b.cycle-t.submitCycle, uint64(latency))
	pt.latency = latency
	return true
}

func (b *Bus) countKind(k Kind) {
	switch k {
	case ReadLine, ReadLineOwn:
		b.stats.LineFills++
	case Upgrade:
		b.stats.LineUpgrades++
	case WriteLine, WriteLineInv:
		b.stats.WriteBacks++
	case ReadWord:
		b.stats.WordReads++
	case WriteWord:
		b.stats.WordWrites++
	case RMWWord:
		b.stats.RMWs++
	case UpdateWord:
		b.stats.WordUpdates++
	}
}

func (b *Bus) memAccess(t *Transaction, res *Result) int {
	b.countKind(t.Kind)
	switch t.Kind {
	case ReadLine, ReadLineOwn:
		res.Data = b.fills.get(t.Words)
		b.mem.ReadLine(t.Addr, res.Data)
		return b.cfg.Timing.BurstLatency(t.Words)
	case WriteLine, WriteLineInv:
		b.mem.WriteLine(t.Addr, t.Data)
		return b.cfg.Timing.BurstLatency(len(t.Data))
	case Upgrade:
		return 1
	case ReadWord:
		res.Val = b.mem.ReadWord(t.Addr)
		return b.cfg.Timing.SingleWord
	case WriteWord:
		b.mem.WriteWord(t.Addr, t.Val)
		return b.cfg.Timing.SingleWord
	case RMWWord:
		res.Val = b.mem.ReadWord(t.Addr)
		b.mem.WriteWord(t.Addr, t.Val)
		return b.cfg.Timing.SingleWord + 2
	case UpdateWord:
		// Word broadcast cache-to-cache: sharers patched during the snoop
		// phase; memory untouched.
		return 2
	default:
		panic(fmt.Sprintf("bus: unknown transaction kind %v", t.Kind))
	}
}

func (b *Bus) complete(now uint64) {
	b.busy = false
	p := b.cur.p
	if p.txn == nil {
		return // aborted tenure
	}
	b.cur.p = pending{}
	res, buf := b.cur.res, b.cur.buf
	b.stats.Completed++
	// Emitted before the completion callbacks so a subscriber sees the
	// master's queue state settle before any synchronous resubmission (e.g.
	// an upgrade falling back to a fill).
	b.events.BusComplete(p.txn.Master, uint8(p.txn.Kind), p.txn.Addr, p.txn.id, b.cycle-p.txn.submitCycle, now-b.curStart, p.txn.retries)
	for _, o := range b.obs {
		o(p.txn, res)
	}
	if p.done != nil {
		p.done(res)
	}
	// The completion callback and observers have returned; reclaim the fill
	// buffer (Result.Data's validity window ends here).
	b.fills.put(buf)
}

// Probe is a waveform-oriented snapshot of the bus state (package vcd).
type Probe struct {
	// Busy reports a tenure in progress.
	Busy bool
	// Master/Kind/Addr describe the current (or last) tenure.
	Master int
	Kind   Kind
	Addr   uint32
	// Aborting marks the current tenure as ARTRYed.
	Aborting bool
}

// Probe returns the current bus activity snapshot.
func (b *Bus) Probe() Probe {
	return Probe{Busy: b.busy, Master: b.curMaster, Kind: b.curKind, Addr: b.curAddr, Aborting: b.curAbort && b.busy}
}

// PreferNext asks the arbiter to grant master id at the next opportunity
// (the paper's BOFF: the arbiter boots the current master so the snoop
// hitter can drain).  Called by snoopers that asserted Retry.
func (b *Bus) PreferNext(id int) { b.preferredNext = id }
