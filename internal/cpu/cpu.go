// Package cpu models the processor cores of the heterogeneous platform as
// program-driven in-order machines: one micro-op (package isa) per CPU
// cycle when not stalled on the memory system.
//
// Three behaviours matter for reproducing the paper:
//
//   - clock domains: the PowerPC755 runs at 100 MHz while the ARM920T and
//     the ASB run at 50 MHz (Table 4) — the platform registers each core
//     with the matching engine divisor;
//   - lock protocols execute as explicit memory-operation sequences
//     (package lock), so spin-waiting occupies the bus realistically;
//   - the ARM920T's software snooping: the snoop logic raises nFIQ, the
//     core takes the interrupt only at an instruction boundary after the
//     configurable interrupt response time, and the service routine drains
//     or invalidates the hit line.  A core stalled on a bus access cannot
//     reach an instruction boundary — exactly the window that produces the
//     paper's hardware-deadlock problem (Figure 4).
package cpu

import (
	"fmt"

	"hetcc/internal/bus"
	"hetcc/internal/cache"
	"hetcc/internal/isa"
	"hetcc/internal/lock"
	"hetcc/internal/metrics"
	"hetcc/internal/profile"
	"hetcc/internal/sim"
	"hetcc/internal/snooplogic"
)

// Attr describes how the core must access an address region.
type Attr struct {
	// Cacheable routes accesses through the data cache.
	Cacheable bool
}

// AttrFunc is the platform's address-region attribute table.
type AttrFunc func(addr uint32) Attr

// Config parameterises a core.
type Config struct {
	// Name labels the core in reports and traces.
	Name string
	// ClockDiv is the engine-cycle divisor (1 = 100 MHz, 2 = 50 MHz).
	ClockDiv uint64
	// InterruptResponse is the minimum number of CPU cycles between nFIQ
	// assertion and the core taking the interrupt (paper Figure 4's
	// "interrupt response time").
	InterruptResponse int
	// ISREntry and ISRExit are the CPU-cycle overheads of entering and
	// leaving the interrupt service routine (mode switch, register save
	// and restore, return).
	ISREntry int
	ISRExit  int
	// CacheOpOverhead is the extra CPU cycles charged per explicit cache
	// maintenance instruction (address generation and loop control in the
	// software solution's drain loop).
	CacheOpOverhead int
	// AccessOverhead is the extra CPU cycles charged per load/store
	// micro-op, modelling the address-generation and loop-control
	// instructions that surround each access in the real microbenchmark
	// kernels.
	AccessOverhead int
}

// Stats collects per-core counters.
type Stats struct {
	Instructions uint64
	StallCycles  uint64
	DelayCycles  uint64
	BusyRetries  uint64
	LockAcquires uint64
	LockReleases uint64
	LockOps      uint64
	CleanOps     uint64
	InvalOps     uint64
	FIQsRaised   uint64
	ISRRuns      uint64
	ISRCycles    uint64
	HaltCycle    uint64
	Halted       bool
}

// Hooks receive retired loads and stores (used by the platform's golden-
// model coherence checker and by tests).  Either may be nil.
type Hooks struct {
	OnLoad  func(core int, addr, val uint32, now uint64)
	OnStore func(core int, addr, val uint32, now uint64)
}

type runState uint8

const (
	stateRun runState = iota
	stateStalled
)

type fiqEntry struct {
	base    uint32
	readyAt uint64 // engine cycle at which the interrupt may be taken
	stamped bool
}

type isrPhase uint8

const (
	isrIdle isrPhase = iota
	isrClean
	isrExit
)

// CPU is one simulated core.
type CPU struct {
	cfg   Config
	id    int
	ctl   *cache.Controller
	attr  AttrFunc
	locks *lock.Manager
	snoop *snooplogic.SnoopLogic // the core's own snoop logic (nil unless PF1/PF2)
	hooks Hooks

	prog   isa.Program
	pc     int
	state  runState
	halted bool
	delay  int

	lockStep       lock.Stepper
	lockPending    lock.MemOp
	lockHasPending bool
	lockLast       uint32
	releasing      bool
	lockStart      uint64 // engine cycle the in-flight acquisition began

	locksHeld int
	// fiqs[fiqHead:] is the pending-interrupt queue; entries are consumed by
	// advancing fiqHead and the slice is rewound when it empties, so the
	// backing array is reused instead of re-growing after every interrupt.
	fiqs       []fiqEntry
	fiqHead    int
	isr        isrPhase
	isrLine    uint32
	isrFound   bool
	savedDelay int // program delay preempted by an interrupt

	onHalt func(id int)
	stats  Stats

	// mLockAcq observes engine cycles from the first acquisition step to
	// lock ownership (nil-safe; see SetMetrics).
	mLockAcq *metrics.Histogram
	// mISR observes engine cycles per interrupt-drain (ISR entry to exit).
	mISR     *metrics.Histogram
	isrStart uint64

	// prof is the nil-safe stall-cause ledger (see SetProfile).
	prof *profile.Ledger

	// handle is the core's event-scheduler registration (nil under the tick
	// scheduler; see BindScheduler).  lastTicked is the engine cycle of the
	// last local clock edge the core has accounted for — catchUp bulk-applies
	// the skipped edges between lastTicked and the next real tick — and the
	// cycle the core's memory accesses are stamped with.
	handle     *sim.Handle
	lastTicked uint64

	// Reusable completion state for the (single) outstanding memory
	// operation, plus the prebound callbacks — the core is stalled until the
	// callback fires, so per-access closure allocation would be pure
	// steady-state garbage.
	accWrite bool
	accAddr  uint32
	accVal   uint32
	waitVal  uint32

	accDoneFn      func(uint32)
	waitEqDoneFn   func(uint32)
	lockOpDoneFn   func(uint32)
	cleanDoneFn    func()
	isrCleanDoneFn func()
}

// New builds a core.  ctl is its cache controller (also the path for
// uncached accesses), attr the platform address map, locks the lock
// manager.  snoop is the core's own external snoop logic, or nil.
func New(cfg Config, id int, ctl *cache.Controller, attr AttrFunc, locks *lock.Manager, snoop *snooplogic.SnoopLogic) *CPU {
	if cfg.ClockDiv == 0 {
		cfg.ClockDiv = 1
	}
	c := &CPU{cfg: cfg, id: id, ctl: ctl, attr: attr, locks: locks, snoop: snoop}
	c.accDoneFn = c.accessDone
	c.waitEqDoneFn = c.waitEqDone
	c.lockOpDoneFn = c.lockOpDone
	c.cleanDoneFn = c.cleanDone
	c.isrCleanDoneFn = c.isrCleanDone
	return c
}

// SetHooks installs load/store observers.
func (c *CPU) SetHooks(h Hooks) { c.hooks = h }

// SetMetrics attaches the core to a metrics registry.  Cores share
// histogram names, so acquisitions aggregate platform-wide.  A nil registry
// leaves the instruments nil (no-op).
func (c *CPU) SetMetrics(r *metrics.Registry) {
	c.mLockAcq = r.Histogram("lock.acquire.enginecycles")
	c.mISR = r.Histogram("cpu.isr.enginecycles")
}

// SetProfile attaches the core to the stall-cause ledger.  The core tells
// the ledger where each stall episode begins (stall) and where it ends
// (syncUnstall, after the stalled edges are counted into
// Stats.StallCycles), so the attributed causes and the aggregate stay
// conserved against each other.  A nil ledger costs one nil check per stall
// episode.
func (c *CPU) SetProfile(l *profile.Ledger) { c.prof = l }

// OnHalt installs the halt notification used by the platform to stop the
// engine when every core has retired its program.
func (c *CPU) OnHalt(f func(id int)) { c.onHalt = f }

// BindScheduler attaches the core to the engine's event scheduler.  The
// platform calls it only when the event scheduler is in force; an unbound
// core behaves exactly as before.
func (c *CPU) BindScheduler(h *sim.Handle) { c.handle = h }

// LoadProgram installs (and validates) the core's program.
func (c *CPU) LoadProgram(p isa.Program) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("cpu %s: %w", c.cfg.Name, err)
	}
	c.prog = p
	c.pc = 0
	c.state = stateRun
	c.halted = false
	return nil
}

// Name returns the configured name.
func (c *CPU) Name() string { return c.cfg.Name }

// ID returns the platform core index.
func (c *CPU) ID() int { return c.id }

// Config returns the core configuration.
func (c *CPU) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *CPU) Stats() Stats { return c.stats }

// Halted reports whether the program has retired.  A halted core still
// services interrupts (it idles, it is not powered off), so the software
// snooping of a retired task keeps working.
func (c *CPU) Halted() bool { return c.halted }

// Controller exposes the core's cache controller (examples, tests).
func (c *CPU) Controller() *cache.Controller { return c.ctl }

// Stalled reports whether the core is blocked on an outstanding memory
// access (waveform probing).
func (c *CPU) Stalled() bool { return c.state == stateStalled }

// LocksHeld reports how many critical-section locks the core currently
// holds (the platform's race detector uses it).
func (c *CPU) LocksHeld() int { return c.locksHeld }

// InISR reports whether the interrupt service routine is running
// (waveform probing).
func (c *CPU) InISR() bool { return c.isr != isrIdle }

// RaiseFIQ implements snooplogic.FIQRaiser.  The readyAt horizon models the
// interrupt response time; the entry is stamped lazily on the next tick
// because the snoop logic has no engine-clock access (matching hardware,
// where nFIQ is a wire sampled by the core).
func (c *CPU) RaiseFIQ(lineBase uint32) {
	c.stats.FIQsRaised++
	c.fiqs = append(c.fiqs, fiqEntry{base: lineBase})
	// Event scheduler: force a tick at the core's next clock edge so the
	// entry is stamped there, exactly when a tick-mode core would sample the
	// nFIQ wire — even a stalled core samples it (the stamp fixes readyAt;
	// taking the interrupt still waits for the stall to clear).
	if c.handle != nil {
		c.handle.Wake(c.handle.Now())
	}
}

// Tick advances the core by one CPU cycle.
func (c *CPU) Tick(now uint64) {
	if c.handle != nil && now > 0 {
		c.catchUp(now - 1) // bulk-apply any skipped edges; this tick handles edge now
	}
	c.lastTicked = now
	// Stamp newly raised FIQs with their response horizon.
	for i := c.fiqHead; i < len(c.fiqs); i++ {
		if !c.fiqs[i].stamped {
			c.fiqs[i].stamped = true
			c.fiqs[i].readyAt = now + uint64(c.cfg.InterruptResponse)*c.cfg.ClockDiv
		}
	}
	// A core stalled on an outstanding memory access cannot take an
	// interrupt — this window is the root of the paper's hardware-deadlock
	// problem (Figure 4).
	if c.state == stateStalled {
		c.stats.StallCycles++
		return
	}
	// ISR in progress: run it (including its entry/exit delay cycles).
	if c.isr != isrIdle {
		if c.delay > 0 {
			c.delay--
			c.stats.DelayCycles++
			c.stats.ISRCycles++
			return
		}
		c.stepISR(now)
		return
	}
	// Take a ripe interrupt.  Plain computation (Delay) is interruptible;
	// the remaining delay resumes after the ISR.  A halted core idles but
	// keeps servicing interrupts.
	if c.fiqHead < len(c.fiqs) && c.fiqs[c.fiqHead].stamped && now >= c.fiqs[c.fiqHead].readyAt {
		f := c.fiqs[c.fiqHead]
		c.fiqHead++
		if c.fiqHead == len(c.fiqs) {
			c.fiqs = c.fiqs[:0]
			c.fiqHead = 0
		}
		c.enterISR(now, f.base)
		return
	}
	if c.halted {
		return
	}
	if c.delay > 0 {
		c.delay--
		c.stats.DelayCycles++
		return
	}
	if c.pc >= len(c.prog) {
		c.halt(now)
		return
	}
	c.execute(now, c.prog[c.pc])
}

// catchUp bulk-applies every skipped local clock edge in (lastTicked,
// through] — edges on which a tick-mode core would only have burned a
// stalled, delayed, ISR-delay or idle cycle.  Catch-up is pull-based, so
// three callers are all that bring the core current: Tick applies the edges
// its declared sleep skipped, syncUnstall the stalled edges before a
// completion mutates the core, and CatchUp (which the engine calls only
// when the run ends) the tail.  The scheduler guarantees the range never
// crosses an edge with real work (instruction execution, a ripe interrupt,
// an ISR step): NextWake always bounds the sleep by the earliest such edge,
// so any other state here is a scheduler bug and panics rather than
// silently diverging from tick mode.
//
// catchUp itself is only the test for a skipped edge, small enough to
// inline into Tick, which runs it on every edge; applySkipped does the work.
func (c *CPU) catchUp(through uint64) {
	if through >= c.lastTicked+c.cfg.ClockDiv {
		c.applySkipped(through)
	}
}

// applySkipped is catchUp's body: at least one edge in (lastTicked,
// through] was skipped.
func (c *CPU) applySkipped(through uint64) {
	div := c.cfg.ClockDiv
	var k uint64
	switch d := through - c.lastTicked; div {
	case 1:
		k = d
	case 2:
		k = d >> 1
	default:
		k = d / div
	}
	e := c.lastTicked + k*div
	switch {
	case c.state == stateStalled:
		c.stats.StallCycles += k
	case c.isr != isrIdle:
		if uint64(c.delay) < k {
			panic("cpu: event catch-up overran an ISR delay")
		}
		c.delay -= int(k)
		c.stats.DelayCycles += k
		c.stats.ISRCycles += k
	case c.halted:
		// Idle edges; a pending interrupt wake bounds the range.
	case c.delay > 0:
		if uint64(c.delay) < k {
			panic("cpu: event catch-up overran a delay sleep")
		}
		c.delay -= int(k)
		c.stats.DelayCycles += k
	default:
		panic("cpu: event catch-up crossed an execute edge")
	}
	c.lastTicked = e
}

// CatchUp implements sim.CatchUpper.
func (c *CPU) CatchUp(through uint64) {
	if c.handle != nil {
		c.catchUp(through)
	}
}

// NextWake implements sim.Waker, counting the core's local clock edges to
// its next required tick and mirroring Tick's branch priority: a stalled
// core is dormant until a completion callback wakes it; an ISR ignores
// further interrupts; a delayed or halted core sleeps to the earlier of its
// delay expiry and the head interrupt's response horizon; a running core
// executes at every edge.
func (c *CPU) NextWake(now uint64) (uint64, bool) {
	if c.state == stateStalled {
		return 0, false
	}
	// Edges to the first one at which the head pending interrupt could be
	// taken.  Entries are stamped by the tick that just ran, so readyAt is
	// valid; a defensive next-edge wake covers an unstamped entry anyway.
	var fiqEdges uint64
	hasFiq := c.fiqHead < len(c.fiqs)
	if hasFiq {
		f := &c.fiqs[c.fiqHead]
		fiqEdges = 1
		if div := c.cfg.ClockDiv; f.stamped && f.readyAt > now+div {
			fiqEdges = (f.readyAt - now + div - 1) / div
		}
	}
	n := uint64(1)
	switch {
	case c.isr != isrIdle:
		n = uint64(c.delay) + 1
	case c.delay > 0:
		n = uint64(c.delay) + 1
		if hasFiq && fiqEdges < n {
			n = fiqEdges
		}
	case c.halted:
		if !hasFiq {
			return 0, false
		}
		n = fiqEdges
	}
	return n, true
}

// syncUnstall accounts the stalled edges up to the current engine cycle
// before a completion callback mutates the core's state.  In tick mode the
// bus callback fires after the cycle's CPU edge, so that edge is included;
// it then ends the ledger's stall episode through that last stalled edge,
// so bus events between now and the core's next tick attribute nothing
// (the core is no longer stalled).  The catch-up is a no-op in tick mode
// or when called synchronously from the core's own tick.
func (c *CPU) syncUnstall() {
	if c.handle != nil {
		c.catchUp(c.handle.Now())
	}
	c.prof.Unstall(c.id, c.lastTicked)
}

// wakeNext schedules the core's next local clock edge after a completion
// callback unblocked it (no-op in tick mode).
func (c *CPU) wakeNext() {
	if c.handle != nil {
		c.handle.Wake(c.handle.Now() + 1)
	}
}

// stall blocks the core on its outstanding operation and opens the
// ledger's stall episode of class at now.
func (c *CPU) stall(now uint64, class profile.Class) {
	c.state = stateStalled
	c.prof.Stall(c.id, class, now, c.cfg.ClockDiv)
}

func (c *CPU) halt(now uint64) {
	if c.halted {
		return
	}
	c.halted = true
	c.stats.Halted = true
	c.stats.HaltCycle = now
	if c.onHalt != nil {
		c.onHalt(c.id)
	}
}

func (c *CPU) enterISR(now uint64, base uint32) {
	c.stats.ISRRuns++
	c.isr = isrClean
	c.isrStart = now
	c.isrLine = base
	c.savedDelay = c.delay
	c.delay = c.cfg.ISREntry
	c.stats.ISRCycles++
}

func (c *CPU) stepISR(now uint64) {
	c.stats.ISRCycles++
	switch c.isr {
	case isrClean:
		c.isrFound = c.ctl.Cache().Lookup(c.isrLine) != nil
		status := c.ctl.Clean(c.isrLine, c.isrCleanDoneFn)
		switch status {
		case cache.Done:
			c.isr = isrExit
			c.delay = c.cfg.ISRExit
		case cache.Pending:
			c.stall(now, profile.ClassDrain)
		case cache.Busy:
			c.stats.BusyRetries++
		}
	case isrExit:
		if c.snoop != nil {
			c.snoop.Complete(c.isrLine, c.isrFound)
		}
		c.mISR.Observe(now - c.isrStart)
		c.isr = isrIdle
		// Resume the computation the interrupt preempted.
		c.delay = c.savedDelay
		c.savedDelay = 0
	}
}

func (c *CPU) execute(now uint64, op isa.Op) {
	switch op.Kind {
	case isa.Nop:
		c.retire()
	case isa.Delay:
		c.delay = int(op.N)
		c.retire()
	case isa.Read:
		c.memAccess(now, false, op.Addr, 0)
	case isa.Write:
		c.memAccess(now, true, op.Addr, op.Val)
	case isa.CleanLine:
		c.stats.CleanOps++
		status := c.ctl.Clean(op.Addr, c.cleanDoneFn)
		switch status {
		case cache.Done:
			c.noteClean(op.Addr)
			c.delay = c.cfg.CacheOpOverhead
			c.retire()
		case cache.Pending:
			c.stall(now, profile.ClassDrain)
		case cache.Busy:
			c.stats.BusyRetries++
		}
	case isa.InvalLine:
		c.stats.InvalOps++
		c.ctl.Invalidate(op.Addr)
		c.noteClean(op.Addr)
		c.delay = c.cfg.CacheOpOverhead
		c.retire()
	case isa.WaitEq:
		c.waitEq(now, op.Addr, op.Val)
	case isa.LockAcquire:
		c.stepLock(now, false, int(op.N))
	case isa.LockRelease:
		c.stepLock(now, true, int(op.N))
	case isa.Halt:
		c.stats.Instructions++
		c.halt(now)
	default:
		panic(fmt.Sprintf("cpu %s: unknown op %v", c.cfg.Name, op))
	}
}

// waitEq polls addr until it reads val: the op retires only on a match,
// otherwise the core backs off a few cycles and polls again.
func (c *CPU) waitEq(now uint64, addr, val uint32) {
	c.waitVal = val
	if c.attr(addr).Cacheable {
		status, v := c.ctl.Access(false, addr, 0, c.waitEqDoneFn)
		switch status {
		case cache.Done:
			c.waitEqDone(v)
		case cache.Pending:
			c.stall(now, profile.ClassLock)
		case cache.Busy:
			c.stats.BusyRetries++
		}
		return
	}
	status := c.ctl.Uncached(bus.ReadWord, addr, 0, c.waitEqDoneFn)
	if status == cache.Busy {
		c.stats.BusyRetries++
		return
	}
	c.stall(now, profile.ClassLock)
}

// waitEqDone resolves one WaitEq poll: retire on a match, otherwise back off
// and poll again.
func (c *CPU) waitEqDone(rv uint32) {
	c.syncUnstall()
	c.state = stateRun
	if rv == c.waitVal {
		c.retire()
		c.wakeNext()
		return
	}
	c.delay = 4 + c.cfg.AccessOverhead // poll back-off; pc unchanged
	c.wakeNext()
}

// noteClean informs the core's snoop logic that a line left the cache
// without a bus write-back (clean invalidation) so its CAM stays tight.
// Dirty drains are observed on the bus and need no note.
func (c *CPU) noteClean(addr uint32) {
	if c.snoop != nil {
		c.snoop.NoteInvalidate(addr)
	}
}

func (c *CPU) retire() {
	c.stats.Instructions++
	c.pc++
}

func (c *CPU) memAccess(now uint64, write bool, addr, val uint32) {
	a := c.attr(addr)
	c.accWrite, c.accAddr, c.accVal = write, addr, val
	if a.Cacheable {
		status, v := c.ctl.Access(write, addr, val, c.accDoneFn)
		switch status {
		case cache.Done:
			c.noteAccess(write, addr, val, v, c.lastTicked)
			c.delay = c.cfg.AccessOverhead
			c.retire()
		case cache.Pending:
			c.stall(now, profile.ClassAccess)
		case cache.Busy:
			c.stats.BusyRetries++
		}
		return
	}
	kind := bus.ReadWord
	if write {
		kind = bus.WriteWord
	}
	status := c.ctl.Uncached(kind, addr, val, c.accDoneFn)
	if status == cache.Busy {
		c.stats.BusyRetries++
		return
	}
	c.stall(now, profile.ClassAccess)
}

// accessDone retires the outstanding load/store once the memory system
// answers.
func (c *CPU) accessDone(rv uint32) {
	c.syncUnstall()
	c.noteAccess(c.accWrite, c.accAddr, c.accVal, rv, c.lastTicked)
	c.state = stateRun
	c.delay = c.cfg.AccessOverhead
	c.retire()
	c.wakeNext()
}

// cleanDone retires an explicit CleanLine op whose drain went to the bus.
func (c *CPU) cleanDone() {
	c.syncUnstall()
	c.state = stateRun
	c.delay = c.cfg.CacheOpOverhead
	c.retire()
	c.wakeNext()
}

// isrCleanDone advances the ISR to its exit phase after the drain completes.
func (c *CPU) isrCleanDone() {
	c.syncUnstall()
	c.state = stateRun
	c.isr = isrExit
	c.delay = c.cfg.ISRExit
	c.wakeNext()
}

func (c *CPU) noteAccess(write bool, addr, val, readVal uint32, now uint64) {
	if write {
		if c.hooks.OnStore != nil {
			c.hooks.OnStore(c.id, addr, val, now)
		}
	} else if c.hooks.OnLoad != nil {
		c.hooks.OnLoad(c.id, addr, readVal, now)
	}
}

// stepLock drives the acquisition/release stepper one memory operation per
// call.
func (c *CPU) stepLock(now uint64, release bool, lockID int) {
	if c.locks == nil {
		panic(fmt.Sprintf("cpu %s: lock op with no lock manager", c.cfg.Name))
	}
	if c.lockStep == nil {
		c.releasing = release
		if release {
			c.lockStep = c.locks.Release(c.id, lockID)
		} else {
			c.lockStep = c.locks.Acquire(c.id, lockID)
			c.lockStart = now
		}
		c.lockLast = 0
		c.lockHasPending = false
	}
	if !c.lockHasPending {
		op, done := c.lockStep.Step(c.lockLast)
		if done {
			if c.releasing {
				c.stats.LockReleases++
				if c.locksHeld > 0 {
					c.locksHeld--
				}
			} else {
				c.stats.LockAcquires++
				c.locksHeld++
				c.mLockAcq.Observe(now - c.lockStart)
			}
			c.lockStep = nil
			c.retire()
			return
		}
		c.lockPending = op
		c.lockHasPending = true
	}
	op := c.lockPending
	c.stats.LockOps++
	switch op.Kind {
	case lock.Spin:
		c.delay = int(op.N)
		c.lockLast = 0
		c.lockHasPending = false
	case lock.ReadUncached, lock.WriteUncached, lock.RMWUncached:
		var kind bus.Kind
		switch op.Kind {
		case lock.ReadUncached:
			kind = bus.ReadWord
		case lock.WriteUncached:
			kind = bus.WriteWord
		default:
			kind = bus.RMWWord
		}
		status := c.ctl.Uncached(kind, op.Addr, op.Val, c.lockOpDoneFn)
		if status == cache.Busy {
			c.stats.BusyRetries++
			c.stats.LockOps--
			return
		}
		c.stall(now, profile.ClassLock)
	case lock.ReadCached, lock.WriteCached:
		write := op.Kind == lock.WriteCached
		status, v := c.ctl.Access(write, op.Addr, op.Val, c.lockOpDoneFn)
		switch status {
		case cache.Done:
			c.lockLast = v
			c.lockHasPending = false
		case cache.Pending:
			c.stall(now, profile.ClassLock)
		case cache.Busy:
			c.stats.BusyRetries++
			c.stats.LockOps--
		}
	default:
		panic(fmt.Sprintf("cpu %s: unknown lock op kind %d", c.cfg.Name, op.Kind))
	}
}

// lockOpDone records the answer to the lock stepper's outstanding memory
// operation; the next stepLock call feeds it back into the stepper.
func (c *CPU) lockOpDone(v uint32) {
	c.syncUnstall()
	c.lockLast = v
	c.lockHasPending = false
	c.state = stateRun
	c.wakeNext()
}
