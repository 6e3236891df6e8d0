package cache

import (
	"fmt"

	"hetcc/internal/bus"
	"hetcc/internal/coherence"
	"hetcc/internal/event"
)

// Policy is the wrapper hook: it intercepts what the snooping cache
// controller observes on the bus and what the master samples from the
// shared signal.  Package wrapper provides implementations derived from the
// paper's protocol-integration rules; Passthrough is the no-wrapper default.
type Policy interface {
	// ConvertSnoop maps the bus operation presented to this controller's
	// snoop port.  The paper's read-to-write conversion maps BusRd to
	// BusRdX here.
	ConvertSnoop(op coherence.BusOp) coherence.BusOp
	// OverrideShared maps the shared-signal value this controller's master
	// port samples on its own fills (force-assert / force-deassert).
	OverrideShared(shared bool) bool
	// AllowSupply reports whether this controller may answer snoops with a
	// cache-to-cache transfer.  Heterogeneous integrations suppress it and
	// fall back to drain-and-retry (the requester may not support
	// receiving an intervention).
	AllowSupply() bool
}

// Passthrough is the identity Policy (no wrapper installed).
type Passthrough struct{}

// ConvertSnoop implements Policy.
func (Passthrough) ConvertSnoop(op coherence.BusOp) coherence.BusOp { return op }

// OverrideShared implements Policy.
func (Passthrough) OverrideShared(shared bool) bool { return shared }

// AllowSupply implements Policy.
func (Passthrough) AllowSupply() bool { return true }

// Status is the synchronous outcome of a controller request.
type Status int

const (
	// Done: the request completed within the call (cache hit).
	Done Status = iota
	// Pending: the request needs the bus; the completion callback fires
	// when it retires.  The CPU must stall.
	Pending
	// Busy: the controller cannot accept the request now (a request is
	// outstanding, or no victim way is available); retry next cycle.
	Busy
)

// Controller is the bus-mastering cache controller of one processor.
type Controller struct {
	name     string
	cache    *Cache
	bus      *bus.Bus
	masterID int
	policy   Policy

	// snoops reports whether this controller's snoop port is wired to the
	// bus.  The ARM920T's is not ("no cache coherence is supported"): its
	// drains happen in software via the interrupt service routine.
	snoops bool

	busy bool // one outstanding CPU request

	// Reusable state of the single outstanding CPU request (guarded by
	// busy): the bus transaction, its parameters, and prebound completion
	// callbacks, so a steady-state miss/upgrade/uncached access allocates
	// nothing.  The fields are written on issue and read back by the
	// completion method the request was submitted with.
	reqTxn    bus.Transaction
	reqWrite  bool
	reqAddr   uint32
	reqVal    uint32
	reqDone   func(uint32)
	reqVictim *Line
	reqOp     coherence.BusOp
	reqNext   coherence.State

	fillDoneFn     func(bus.Result)
	upgDoneFn      func(bus.Result)
	uncachedDoneFn func(bus.Result)
	wtWriteDoneFn  func(bus.Result)
	wtReadDoneFn   func(bus.Result)

	// wbFree is the free list of write-back jobs (see wbJob); write-backs
	// can overlap each other and the CPU request, so they carry their own
	// reusable transactions and buffers.
	wbFree []*wbJob

	// pendingWB holds line bases whose write-back is queued or in flight
	// (evicted victims, software drains; snoop flushes are tracked on the
	// line itself via flushPending).  A snoop hit on one of these must ARTRY
	// until memory is written, or another master would read stale data.
	pendingWB map[uint32]struct{}

	// writeThrough, when non-nil, marks addresses whose lines are
	// write-through (the Intel486 defines lines as write-back or
	// write-through at allocation time; WT lines follow the SI protocol:
	// they allocate Shared on read, never dirty, and stores go straight to
	// memory).  nil means every line is write-back.
	writeThrough func(addr uint32) bool

	upgradeBase uint32
	upgradeLive bool
	upgradeLost bool

	// nil-safe coherence event sink (see SetEvents): the controller's only
	// report channel.  Miss and drain latencies, and invalidation re-misses,
	// are derived from its records by their subscribers.
	events *event.Sink
}

// NewController wires a controller for cache c on bus b, registering a new
// bus master.  If snoops is true the controller is attached to the snoop
// network (PF3-style processors); pass false for coherence-less processors
// whose snooping is performed by external snoop logic.
func NewController(name string, c *Cache, b *bus.Bus, policy Policy, snoops bool) *Controller {
	if policy == nil {
		policy = Passthrough{}
	}
	ctl := &Controller{
		name:      name,
		cache:     c,
		bus:       b,
		masterID:  b.AddMaster(name),
		policy:    policy,
		snoops:    snoops,
		pendingWB: make(map[uint32]struct{}),
	}
	ctl.fillDoneFn = ctl.fillDone
	ctl.upgDoneFn = ctl.upgradeDone
	ctl.uncachedDoneFn = ctl.uncachedDone
	ctl.wtWriteDoneFn = ctl.wtWriteDone
	ctl.wtReadDoneFn = ctl.wtReadDone
	if snoops {
		b.AddSnooper(ctl.masterID, ctl)
	}
	return ctl
}

// MasterID returns the bus master id of this controller.
func (ctl *Controller) MasterID() int { return ctl.masterID }

// SetEvents attaches the controller to a coherence event sink.  A nil sink
// makes every emission a single nil check.
func (ctl *Controller) SetEvents(s *event.Sink) { ctl.events = s }

// noteState publishes a line state transition on the event stream.  State
// assignments below route through it so the auditor sees every transition.
func (ctl *Controller) noteState(base uint32, old, next coherence.State) {
	if old != next {
		ctl.events.StateChange(ctl.masterID, base, old, next)
	}
}

// Cache returns the underlying storage array.
func (ctl *Controller) Cache() *Cache { return ctl.cache }

// SetPolicy replaces the wrapper policy (used by the platform builder after
// protocol reduction).
func (ctl *Controller) SetPolicy(p Policy) {
	if p == nil {
		p = Passthrough{}
	}
	ctl.policy = p
}

// SetWriteThrough installs the write-through region predicate (Intel486
// style: the paper's Section 3 notes "only write-through lines can have the
// S state, and only write-back lines can have the E state").
func (ctl *Controller) SetWriteThrough(pred func(addr uint32) bool) {
	ctl.writeThrough = pred
}

func (ctl *Controller) isWriteThrough(addr uint32) bool {
	return ctl.writeThrough != nil && ctl.writeThrough(addr)
}

// Access performs a CPU load (write=false) or store (write=true) of the
// word at addr.  On Done, readVal holds the loaded value (stores return 0).
// On Pending, done(readVal) fires at retirement.  On Busy the caller must
// retry on a later cycle.
func (ctl *Controller) Access(write bool, addr, val uint32, done func(readVal uint32)) (Status, uint32) {
	if ctl.busy {
		return Busy, 0
	}
	if ctl.isWriteThrough(addr) {
		return ctl.accessWriteThrough(write, addr, val, done)
	}
	proto := ctl.cache.Protocol()
	l := ctl.cache.Lookup(addr)
	if l != nil && !l.flushPending {
		ctl.cache.Touch(l)
		w := ctl.cache.WordIndex(addr)
		if !write {
			if _, err := proto.OnReadHit(l.State); err != nil {
				panic(fmt.Sprintf("cache %s: %v", ctl.name, err))
			}
			ctl.cache.stats.ReadHits++
			return Done, l.Data[w]
		}
		next, op, needsBus, err := proto.OnWriteHit(l.State)
		if err != nil {
			panic(fmt.Sprintf("cache %s: %v", ctl.name, err))
		}
		if !needsBus {
			ctl.cache.stats.WriteHits++
			ctl.noteState(l.Base, l.State, next)
			l.State = next
			l.Data[w] = val
			return Done, 0
		}
		// Write hit on a shared line: ownership upgrade (invalidation
		// protocols) or word broadcast (Dragon) on the bus.
		ctl.cache.stats.WriteHits++
		ctl.busy = true
		ctl.writeWithBus(op, next, addr, val, done)
		return Pending, 0
	}
	if l != nil && l.flushPending {
		// Our own line is mid-drain; stall until it settles.
		return Busy, 0
	}

	// Miss.
	if write {
		ctl.cache.stats.WriteMisses++
	} else {
		ctl.cache.stats.ReadMisses++
	}
	if ctl.cache.Victim(addr) == nil {
		return Busy, 0 // every way is draining; retry
	}
	ctl.busy = true
	ctl.missFill(write, addr, val, done)
	return Pending, 0
}

// accessWriteThrough implements the SI protocol for write-through lines:
// reads allocate Shared; stores update memory directly (and the cached copy
// in place, if any) and never allocate.
func (ctl *Controller) accessWriteThrough(write bool, addr, val uint32, done func(uint32)) (Status, uint32) {
	l := ctl.cache.Lookup(addr)
	if write {
		ctl.busy = true
		ctl.reqDone = done
		ctl.events.MemAccess(ctl.masterID, addr, true)
		ctl.reqTxn.Reset(ctl.masterID, bus.WriteWord, addr, 1, val, nil)
		if l != nil && !l.flushPending {
			ctl.cache.stats.WriteHits++
			l.Data[ctl.cache.WordIndex(addr)] = val
			ctl.cache.Touch(l)
		} else {
			ctl.cache.stats.WriteMisses++ // no write allocation
		}
		ctl.bus.Submit(&ctl.reqTxn, ctl.wtWriteDoneFn)
		return Pending, 0
	}
	if l != nil && !l.flushPending {
		ctl.cache.stats.ReadHits++
		ctl.cache.Touch(l)
		return Done, l.Data[ctl.cache.WordIndex(addr)]
	}
	if l != nil && l.flushPending {
		return Busy, 0
	}
	ctl.cache.stats.ReadMisses++
	victim := ctl.cache.Victim(addr)
	if victim == nil {
		return Busy, 0
	}
	if victim.State != coherence.Invalid {
		ctl.evict(victim)
	}
	cfg := ctl.cache.Config()
	ctl.busy = true
	ctl.reqAddr = addr
	ctl.reqDone = done
	ctl.reqVictim = victim
	ctl.events.MemAccess(ctl.masterID, addr, false)
	ctl.reqTxn.Reset(ctl.masterID, bus.ReadLine, cfg.LineAddr(addr), cfg.WordsPerLine(), 0, nil)
	ctl.bus.Submit(&ctl.reqTxn, ctl.wtReadDoneFn)
	return Pending, 0
}

// wtWriteDone completes a write-through store.
func (ctl *Controller) wtWriteDone(bus.Result) {
	done := ctl.reqDone
	ctl.reqDone = nil
	ctl.busy = false
	done(0)
}

// wtReadDone completes a write-through read-miss fill (SI protocol: the line
// allocates Shared).
func (ctl *Controller) wtReadDone(res bus.Result) {
	addr, done, victim := ctl.reqAddr, ctl.reqDone, ctl.reqVictim
	ctl.reqDone, ctl.reqVictim = nil, nil
	l := ctl.cache.Install(addr, res.Data, coherence.Shared, victim)
	ctl.noteState(l.Base, coherence.Invalid, l.State)
	ctl.busy = false
	done(l.Data[ctl.cache.WordIndex(addr)])
}

// writeWithBus completes a write hit that needs a bus operation: an
// ownership upgrade (BusUpgr) or a Dragon word broadcast (BusUpd).  Caller
// has set ctl.busy.
func (ctl *Controller) writeWithBus(op coherence.BusOp, next coherence.State, addr, val uint32, done func(uint32)) {
	base := ctl.cache.Config().LineAddr(addr)
	ctl.upgradeBase = base
	ctl.upgradeLive = true
	ctl.upgradeLost = false
	ctl.reqOp, ctl.reqNext = op, next
	ctl.reqAddr, ctl.reqVal, ctl.reqDone = addr, val, done
	ctl.events.MemAccess(ctl.masterID, addr, true)
	switch op {
	case coherence.BusUpgr:
		ctl.cache.stats.Upgrades++
		ctl.reqTxn.Reset(ctl.masterID, bus.Upgrade, base, ctl.cache.Config().WordsPerLine(), 0, nil)
	case coherence.BusUpd:
		ctl.reqTxn.Reset(ctl.masterID, bus.UpdateWord, addr, 1, val, nil)
	default:
		panic(fmt.Sprintf("cache %s: write hit needs unsupported bus op %v", ctl.name, op))
	}
	ctl.bus.Submit(&ctl.reqTxn, ctl.upgDoneFn)
}

// upgradeDone completes a writeWithBus request (BusUpgr or BusUpd).
func (ctl *Controller) upgradeDone(res bus.Result) {
	op, next := ctl.reqOp, ctl.reqNext
	addr, val, done := ctl.reqAddr, ctl.reqVal, ctl.reqDone
	ctl.upgradeLive = false
	if ctl.upgradeLost {
		// The line was invalidated while the request was queued: fall
		// back to a full write miss.
		ctl.missFill(true, addr, val, done)
		return
	}
	cur := ctl.cache.Lookup(addr)
	if cur == nil {
		ctl.missFill(true, addr, val, done)
		return
	}
	if op == coherence.BusUpd {
		// Dragon: stay owner if anybody still shares the line.
		next = ctl.cache.Protocol().AfterUpdate(ctl.policy.OverrideShared(res.Shared))
	}
	ctl.noteState(cur.Base, cur.State, next)
	cur.State = next
	cur.Data[ctl.cache.WordIndex(addr)] = val
	ctl.cache.Touch(cur)
	ctl.reqDone = nil
	ctl.busy = false
	done(0)
}

// missFill evicts a victim if needed and issues the line fill.  Caller has
// set ctl.busy.
func (ctl *Controller) missFill(write bool, addr, val uint32, done func(uint32)) {
	victim := ctl.cache.Victim(addr)
	if victim == nil {
		panic(fmt.Sprintf("cache %s: no victim for fill of 0x%08x", ctl.name, addr))
	}
	if victim.State != coherence.Invalid {
		ctl.evict(victim)
	}
	cfg := ctl.cache.Config()
	proto := ctl.cache.Protocol()
	kind := bus.ReadLine
	if write && !proto.UpdateBased() {
		kind = bus.ReadLineOwn
	}
	base := cfg.LineAddr(addr)
	ctl.reqWrite, ctl.reqAddr, ctl.reqVal = write, addr, val
	ctl.reqDone, ctl.reqVictim = done, victim
	ctl.events.MemAccess(ctl.masterID, addr, write)
	ctl.reqTxn.Reset(ctl.masterID, kind, base, cfg.WordsPerLine(), 0, nil)
	ctl.bus.Submit(&ctl.reqTxn, ctl.fillDoneFn)
}

// fillDone completes a missFill request.
func (ctl *Controller) fillDone(res bus.Result) {
	write, addr, val := ctl.reqWrite, ctl.reqAddr, ctl.reqVal
	done, victim := ctl.reqDone, ctl.reqVictim
	ctl.reqVictim = nil
	proto := ctl.cache.Protocol()
	shared := ctl.policy.OverrideShared(res.Shared)
	var st coherence.State
	if write && !proto.UpdateBased() {
		st = proto.FillStateAfterWrite()
	} else {
		st = proto.FillStateAfterRead(shared)
	}
	l := ctl.cache.Install(addr, res.Data, st, victim)
	ctl.noteState(l.Base, coherence.Invalid, l.State)
	w := ctl.cache.WordIndex(addr)
	if !write {
		ctl.reqDone = nil
		ctl.busy = false
		done(l.Data[w])
		return
	}
	if proto.UpdateBased() {
		// Dragon write miss: fill, then write like a hit — silently
		// when exclusive, by bus update when shared.
		next, op, needsBus, err := proto.OnWriteHit(st)
		if err != nil {
			panic(fmt.Sprintf("cache %s: %v", ctl.name, err))
		}
		if needsBus {
			ctl.writeWithBus(op, next, addr, val, done)
			return
		}
		ctl.noteState(l.Base, l.State, next)
		l.State = next
	}
	l.Data[w] = val
	ctl.reqDone = nil
	ctl.busy = false
	done(0)
}

// evict removes a (valid) line from the array, queueing a write-back if it
// is dirty.
func (ctl *Controller) evict(l *Line) {
	ctl.cache.stats.Evictions++
	base := l.Base
	if l.State.Dirty() {
		ctl.cache.stats.EvictionWBs++
		j := ctl.getWB()
		j.kind = wbEvict
		j.base = base
		j.setData(l.Data)
		ctl.pendingWB[base] = struct{}{}
		j.txn.Reset(ctl.masterID, bus.WriteLine, base, 0, 0, j.buf)
		ctl.bus.Submit(&j.txn, j.doneFn)
	}
	if ctl.upgradeLive && base == ctl.upgradeBase {
		ctl.upgradeLost = true
	}
	ctl.noteState(base, l.State, coherence.Invalid)
	l.State = coherence.Invalid
}

// Uncached issues a single-word bus transaction bypassing the cache.  kind
// must be ReadWord, WriteWord or RMWWord.  done receives the read value
// (the old value for RMWWord, 0 for writes).
func (ctl *Controller) Uncached(kind bus.Kind, addr, val uint32, done func(uint32)) Status {
	if ctl.busy {
		return Busy
	}
	switch kind {
	case bus.ReadWord, bus.WriteWord, bus.RMWWord:
	default:
		panic(fmt.Sprintf("cache %s: uncached access with kind %v", ctl.name, kind))
	}
	ctl.busy = true
	ctl.reqDone = done
	ctl.reqTxn.Reset(ctl.masterID, kind, addr, 1, val, nil)
	ctl.bus.Submit(&ctl.reqTxn, ctl.uncachedDoneFn)
	return Pending
}

// uncachedDone completes an Uncached word access.
func (ctl *Controller) uncachedDone(res bus.Result) {
	done := ctl.reqDone
	ctl.reqDone = nil
	ctl.busy = false
	done(res.Val)
}

// Clean writes back (if dirty) and invalidates the line containing addr —
// the software solution's per-line "drain" and the ISR's action on a
// modified line.  Returns Done if no write-back was needed.
func (ctl *Controller) Clean(addr uint32, done func()) Status {
	ctl.cache.stats.CleanOps++
	l := ctl.cache.Lookup(addr)
	if l == nil {
		return Done
	}
	if l.flushPending {
		return Busy
	}
	if !l.State.Dirty() {
		ctl.invalidateLine(l)
		return Done
	}
	base := l.Base
	j := ctl.getWB()
	j.kind = wbClean
	j.base = base
	j.userDone = done
	j.setData(l.Data)
	ctl.pendingWB[base] = struct{}{}
	ctl.invalidateLine(l)
	j.txn.Reset(ctl.masterID, bus.WriteLine, base, 0, 0, j.buf)
	ctl.bus.Submit(&j.txn, j.doneFn)
	return Pending
}

// Invalidate discards the line containing addr without writing it back (the
// ISR's action on a clean line).  Invalidating a dirty line loses data, as
// it would in hardware; callers use Clean when the line may be dirty.
func (ctl *Controller) Invalidate(addr uint32) {
	ctl.cache.stats.InvalOps++
	if l := ctl.cache.Lookup(addr); l != nil && !l.flushPending {
		ctl.invalidateLine(l)
	}
}

func (ctl *Controller) invalidateLine(l *Line) {
	if ctl.upgradeLive && l.Base == ctl.upgradeBase {
		ctl.upgradeLost = true
	}
	ctl.noteState(l.Base, l.State, coherence.Invalid)
	l.State = coherence.Invalid
	l.flushPending = false
}

// SnoopBus implements bus.Snooper: the snoop port of the cache controller,
// consulted (through the wrapper policy) for every other master's coherent
// transaction.
func (ctl *Controller) SnoopBus(t *bus.Transaction) bus.SnoopReply {
	base := ctl.cache.Config().LineAddr(t.Addr)
	if _, inflight := ctl.pendingWB[base]; inflight {
		// The line's write-back is queued but memory is not yet current.
		return bus.SnoopReply{Retry: true, Drain: true}
	}
	l := ctl.cache.Lookup(t.Addr)
	if l == nil {
		return bus.SnoopReply{}
	}
	if l.flushPending {
		return bus.SnoopReply{Retry: true, Drain: true}
	}
	rawOp := t.Kind.CoherenceOp()
	op := ctl.policy.ConvertSnoop(rawOp)
	converted := op != rawOp
	out, err := ctl.cache.Protocol().OnSnoop(l.State, op)
	if err != nil {
		panic(fmt.Sprintf("cache %s: %v", ctl.name, err))
	}
	ctl.cache.stats.SnoopHits++
	if out.Supply && !ctl.policy.AllowSupply() {
		// Intervention suppressed: drain to memory and let the requester
		// retry, as a non-MOESI requester cannot accept the transfer.
		out.Supply = false
		out.Flush = true
		if out.Next == coherence.Owned {
			out.Next = coherence.Shared
		}
	}
	// Emitted after supply suppression so the flags carry the resolved
	// reaction; out.Next == Invalid covers the flush branch too (the line is
	// invalidated, or downgraded, when its drain completes).
	ctl.events.SnoopHit(ctl.masterID, l.Base, op, t.Master,
		out.Next == coherence.Invalid, out.Supply, out.Flush, converted)
	if out.Flush {
		// ARTRY/HITM: drain first, then let the requester retry.  The
		// arbiter is asked to grant us next (BOFF).
		ctl.cache.stats.SnoopFlushes++
		l.flushPending = true
		l.flushNext = out.Next
		j := ctl.getWB()
		j.kind = wbFlush
		j.line = l
		j.setData(l.Data)
		j.txn.Reset(ctl.masterID, bus.WriteLine, l.Base, 0, 0, j.buf)
		ctl.bus.SubmitFlush(&j.txn, j.doneFn)
		ctl.bus.PreferNext(ctl.masterID)
		return bus.SnoopReply{Retry: true, Drain: true}
	}
	reply := bus.SnoopReply{Shared: out.AssertShared}
	if out.Update {
		// Dragon bus update: patch the broadcast word in place.
		ctl.cache.stats.SnoopUpdates++
		l.Data[ctl.cache.WordIndex(t.Addr)] = t.Val
	}
	if out.Supply {
		ctl.cache.stats.SnoopSupplies++
		reply.Supply = true
		// The bus copies the reply before this call returns (SnoopReply.Data
		// contract), so the live line can be handed out without a copy.
		reply.Data = l.Data
	}
	if out.Next == coherence.Invalid {
		ctl.cache.stats.SnoopInvalidations++
		ctl.invalidateLine(l)
	} else if out.Next != l.State {
		ctl.cache.stats.SnoopDowngrades++
		ctl.noteState(l.Base, l.State, out.Next)
		l.State = out.Next
	}
	return reply
}
