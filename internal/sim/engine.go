// Package sim provides the deterministic cycle-level simulation kernel used
// by every other hetcc subsystem.
//
// The engine advances a single global cycle counter at the frequency of the
// fastest clock in the system (the 100 MHz CPU clock in the paper's
// configuration).  Components that run on slower clocks register with a
// clock divisor: a component with divisor 2 is ticked on every second engine
// cycle, which models the 50 MHz AMBA ASB bus and the 50 MHz ARM920T core of
// the paper's Table 4.
//
// Determinism is a hard requirement (DESIGN.md invariant 7): components are
// ticked in registration order, and all randomness flows through the seeded
// SplitMix64 generator in rng.go.
//
// The engine has two scheduling strategies with identical observable
// behaviour (DESIGN.md §8):
//
//   - tick: every registered component is ticked at every one of its local
//     clock edges — the reference semantics;
//   - event: components that implement Waker declare how many local clock
//     edges away their next actionable edge lies, the engine keeps one
//     pending wake cycle per component, and Run jumps straight from one
//     actionable cycle to the next.  Each cycle is evaluated as one walk
//     over the components in registration order, so the intra-cycle
//     evaluation order is exactly the tick-mode order.
//     Components that also implement CatchUpper skip their idle edges and
//     apply them in bulk when read: each brings itself current in its own
//     Tick and, through Handle.Horizon, before another component reads it.
//     The engine calls CatchUp itself only when the run ends.  Components
//     that implement neither fall back to per-divisor ticking and see no
//     behaviour change at all.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
)

// Ticker is the interface implemented by every simulated hardware block.
// Tick is invoked once per local clock edge with the current global cycle.
type Ticker interface {
	Tick(now uint64)
}

// TickFunc adapts an ordinary function to the Ticker interface.
type TickFunc func(now uint64)

// Tick implements Ticker.
func (f TickFunc) Tick(now uint64) { f(now) }

// Waker is implemented by components that can tell the event scheduler when
// they next need a tick.  NextWake is consulted immediately after each Tick
// at engine cycle now: it returns how many of the component's local clock
// edges after now its next required tick lies (1 is the next edge, at now
// plus the divisor; 0 counts as 1), or ok=false for "dormant" — the
// component will not need a tick until some other component wakes it
// through its registration Handle.  Counting in edges keeps the wake on the
// component's clock grid without a division.
//
// Declaring an extra wake is always safe (the component is simply ticked at
// a local edge it would have been ticked at under the tick scheduler);
// missing a required wake breaks the dual-scheduler equivalence contract.
type Waker interface {
	Ticker
	NextWake(now uint64) (uint64, bool)
}

// CatchUpper is implemented by components whose skipped local edges carry
// state another component could observe (cycle counters, stall accounting).
// Catch-up is pull-based: such a component applies its skipped edges itself
// before each of its own ticks and before any read of that state by another
// component, through the cycle Handle.Horizon names, so every reader sees
// exactly the state a tick-mode run would show.  The event scheduler calls
// CatchUp(through), which applies every local edge <= through in bulk, only
// when the run ends: after the pass in which Stop was called, and at budget
// exhaustion.  CatchUp must be idempotent for a given horizon.
type CatchUpper interface {
	CatchUp(through uint64)
}

// ErrMaxCycles is returned by Run when the cycle budget is exhausted before
// any component requested a stop.  It usually indicates a livelock such as
// the paper's hardware-deadlock scenario.
var ErrMaxCycles = errors.New("sim: maximum cycle budget exhausted")

type registration struct {
	name  string
	div   uint64
	t     Ticker
	waker Waker      // non-nil when t implements Waker
	catch CatchUpper // non-nil when t implements CatchUpper
}

// Engine is the simulation kernel.  The zero value is not usable; create
// engines with NewEngine.
type Engine struct {
	now     uint64
	regs    []registration
	stopped bool
	stopErr error
	reason  string

	// event-scheduler state (see UseEventScheduler)
	event bool
	// passIdx is the registration index currently being evaluated inside an
	// event pass, or -1 outside one.  Handle.Wake uses it to decide whether
	// a wake may still land on the current cycle (the target has not been
	// evaluated yet this pass) or must move to the next local edge;
	// Handle.Horizon, whether a reader sees the current cycle's edge.
	passIdx int
	due     []uint64 // per registration: pending wake cycle, or dormant
	// nextDue is the earliest pending wake among the entries the pass in
	// progress has walked (all of them between passes): the next pass's
	// cycle.
	nextDue uint64

	sched    SchedStats
	lastPass uint64
	havePass bool
}

// dormant is the wake-table entry of a component with no pending wake.
const dormant = ^uint64(0)

// SchedStats are the event scheduler's activity counters: how many wakes
// it delivered and how much idle time it actually skipped.  All zero under
// the tick scheduler.
type SchedStats struct {
	// Wakes counts component ticks delivered.
	Wakes uint64
	// Passes counts evaluated cycles (each pass is one non-idle cycle).
	Passes uint64
	// SkipBuckets is a log2 histogram of the cycle distance between
	// consecutive evaluated passes: bucket i counts jumps d with
	// bits.Len64(d) == i, so bucket 1 is adjacent cycles (nothing skipped)
	// and higher buckets are idle gaps the scheduler jumped over.
	SkipBuckets [65]uint64
}

// SchedStats returns a copy of the event-scheduler counters.
func (e *Engine) SchedStats() SchedStats { return e.sched }

// NewEngine returns an engine at cycle zero with no registered components.
func NewEngine() *Engine {
	return &Engine{passIdx: -1}
}

// Handle identifies one registered component to the scheduler.  Components
// hold their handle to wake themselves (or be woken by the subsystems that
// unblock them) under the event scheduler; every method is a no-op in tick
// mode, so callers never need to branch on the scheduler in force.
type Handle struct {
	e   *Engine
	idx int32
}

// Now reports the engine's current global cycle.
func (h *Handle) Now() uint64 { return h.e.now }

// Div returns the component's clock divisor.
func (h *Handle) Div() uint64 { return h.e.regs[h.idx].div }

// Horizon reports the last engine cycle whose edge of this component a
// reader must see applied, for a CatchUpper that brings itself current on
// demand.  A reader evaluated after the component in the pass in progress
// sees the current cycle's edge, as it would under the tick scheduler; any
// other reader (one evaluated before it, the component itself, or code
// outside a pass) sees the edges through the cycle before.  ok is false when
// there is no such cycle yet (cycle 0).
func (h *Handle) Horizon() (through uint64, ok bool) {
	e := h.e
	if e.passIdx > int(h.idx) {
		return e.now, true
	}
	if e.now == 0 {
		return 0, false
	}
	return e.now - 1, true
}

// Wake schedules the component to be ticked at engine cycle at (no-op in
// tick mode).  The cycle is clamped into feasibility — during the evaluation
// pass for cycle T, a component already evaluated this pass can be woken no
// earlier than T+1 — and then rounded up to the component's next local clock
// edge.  Duplicate wakes keep the earliest: waking a component that already
// has an earlier pending wake changes nothing, and a wake in the past
// degrades to "tick me at my next edge".  Extra wakes are harmless by
// design; see Waker.
func (h *Handle) Wake(at uint64) {
	e := h.e
	if !e.event || e.due == nil {
		// Tick mode, or an event engine being driven through Step before
		// runEvent initialised the wake structure (Step always ticks every
		// divisor edge, so no wake is needed).
		return
	}
	base := e.now
	if int(h.idx) <= e.passIdx {
		base = e.now + 1
	}
	if at < base {
		at = base
	}
	// Round up to the local edge; a mask does it for a power-of-two
	// divisor, so the common divisors 1 and 2 cost no division.
	div := e.regs[h.idx].div
	rem := at & (div - 1)
	if div&(div-1) != 0 {
		rem = at % div
	}
	if rem != 0 {
		at += div - rem
	}
	e.schedule(int(h.idx), at)
}

// Register adds a component ticked every div engine cycles (div >= 1).
// Components are ticked in registration order, which fixes the intra-cycle
// evaluation order and keeps runs reproducible.  The returned Handle is the
// component's wake-up channel under the event scheduler; tick-mode callers
// may ignore it.
func (e *Engine) Register(name string, div uint64, t Ticker) *Handle {
	if div == 0 {
		panic("sim: clock divisor must be >= 1")
	}
	if t == nil {
		panic("sim: nil ticker")
	}
	r := registration{name: name, div: div, t: t}
	r.waker, _ = t.(Waker)
	r.catch, _ = t.(CatchUpper)
	e.regs = append(e.regs, r)
	return &Handle{e: e, idx: int32(len(e.regs) - 1)}
}

// UseEventScheduler switches Run to the event scheduler.  Call it after the
// components are registered and before Run; Step always uses tick
// semantics.
func (e *Engine) UseEventScheduler() { e.event = true }

// EventScheduler reports whether the event scheduler is in force.
func (e *Engine) EventScheduler() bool { return e.event }

// Now reports the current global cycle.
func (e *Engine) Now() uint64 { return e.now }

// Stop requests that the run loop terminate at the end of the current cycle.
// A nil err marks a normal completion (for example, all programs retired).
func (e *Engine) Stop(reason string, err error) {
	e.stopped = true
	e.stopErr = err
	e.reason = reason
}

// Stopped reports whether a stop has been requested.
func (e *Engine) Stopped() bool { return e.stopped }

// StopReason returns the reason string passed to Stop, or "" if running.
func (e *Engine) StopReason() string { return e.reason }

// Step advances the simulation by one engine cycle, ticking every component
// whose divisor divides the current cycle number.
func (e *Engine) Step() {
	for _, r := range e.regs {
		if e.now%r.div == 0 {
			r.t.Tick(e.now)
		}
	}
	e.now++
}

// Run steps the engine until Stop is called or maxCycles elapse.  It returns
// the error passed to Stop, or ErrMaxCycles on budget exhaustion.
func (e *Engine) Run(maxCycles uint64) error {
	if e.event {
		return e.runEvent(maxCycles)
	}
	for e.now < maxCycles {
		if e.stopped {
			return e.stopErr
		}
		e.Step()
	}
	if e.stopped {
		return e.stopErr
	}
	return fmt.Errorf("%w (after %d cycles)", ErrMaxCycles, maxCycles)
}

// runEvent is the event-scheduler run loop: jump to the earliest pending
// wake, evaluate that cycle as one pass, repeat.  Stop semantics match tick
// mode exactly — a stop requested during cycle T takes effect with now=T+1,
// after the full pass, with every CatchUpper brought through T — as do
// budget exhaustion semantics: skipped edges up to maxCycles-1 are
// bulk-applied through CatchUp so the final counters are those of a
// tick-mode run of the same budget.
func (e *Engine) runEvent(maxCycles uint64) error {
	if e.due == nil {
		e.initEventState()
	}
	// Each pass finds the next one's cycle; only the first is searched for.
	// A dormant table leaves nextDue at the sentinel, which no budget
	// exceeds.
	e.nextDue = e.minDue()
	for !e.stopped && e.nextDue < maxCycles {
		t := e.nextDue
		e.pass(t)
		if e.stopped {
			e.catchUpAll(t)
		}
	}
	if e.stopped {
		return e.stopErr
	}
	if maxCycles > 0 {
		e.catchUpAll(maxCycles - 1)
	}
	e.now = maxCycles
	return fmt.Errorf("%w (after %d cycles)", ErrMaxCycles, maxCycles)
}

// catchUpAll brings every CatchUpper through engine cycle t.
func (e *Engine) catchUpAll(t uint64) {
	for i := range e.regs {
		if c := e.regs[i].catch; c != nil {
			c.CatchUp(t)
		}
	}
}

// initEventState sizes the wake table and schedules every component for
// cycle 0 (every divisor has an edge there, exactly as under Step).  All
// allocation happens here, once: schedule and pass are allocation-free
// (pinned by TestAllocsScheduler).
func (e *Engine) initEventState() {
	e.due = make([]uint64, len(e.regs))
	for i := range e.due {
		e.due[i] = dormant
	}
	for i := range e.due {
		e.schedule(i, 0)
	}
}

// minDue returns the earliest pending wake, or dormant when none is.
func (e *Engine) minDue() uint64 {
	m := dormant
	for _, d := range e.due {
		if d < m {
			m = d
		}
	}
	return m
}

// pass evaluates engine cycle t in one walk over the wake table in
// registration order, ticking every component due at t: the tick-mode
// intra-cycle order by construction.  Handle.Wake lets a wake land on t only
// for a component the walk has not reached yet, so such a wake joins the
// pass when the walk gets there; every other wake lands on t+1 or later.
// passIdx tracks the component being evaluated, which is what Handle.Wake
// and Handle.Horizon position against.
//
// The same walk finds the next pass's cycle: it takes the minimum of every
// entry it steps over or leaves behind, and schedule lowers that minimum for
// a wake on an entry already walked.  Every entry not yet walked is read
// when the walk reaches it, so nextDue is the earliest pending wake when
// the walk ends.
func (e *Engine) pass(t uint64) {
	if e.havePass {
		e.sched.SkipBuckets[bits.Len64(t-e.lastPass)]++
	}
	e.lastPass, e.havePass = t, true
	e.sched.Passes++
	e.now = t
	e.nextDue = dormant
	for i := range e.due {
		if d := e.due[i]; d != t {
			if d < e.nextDue {
				e.nextDue = d
			}
			continue
		}
		e.due[i] = dormant
		e.sched.Wakes++
		e.passIdx = i
		r := &e.regs[i]
		r.t.Tick(t)
		// Fallback for components without a wake condition: plain
		// per-divisor ticking, exactly as under the tick scheduler.
		next := t + r.div
		if r.waker != nil {
			edges, ok := r.waker.NextWake(t)
			if !ok {
				continue // dormant, unless its tick woke it (already counted)
			}
			if edges > 1 {
				next = t + edges*r.div // 0 counts as 1: a waker must move forward
			}
		}
		e.schedule(i, next)
	}
	e.passIdx = -1
	e.now = t + 1
}

// schedule sets or tightens the pending wake of registration idx
// (keep-earliest dedup).  A wake on an entry the pass in progress has
// already walked lowers the next pass's cycle; outside a pass, runEvent
// searches the table afresh before its first pass.
func (e *Engine) schedule(idx int, at uint64) {
	if at >= e.due[idx] {
		return
	}
	e.due[idx] = at
	if idx <= e.passIdx && at < e.nextDue {
		e.nextDue = at
	}
}
