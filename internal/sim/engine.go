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
//   - event: components that implement Waker declare the engine cycle of
//     their next actionable edge, the engine keeps the pending wakes in an
//     indexed min-heap keyed by (cycle, registration index), and Run jumps
//     straight from one actionable cycle to the next.  Ties on the cycle
//     break by registration index, so the intra-cycle evaluation order is
//     exactly the tick-mode order.  Components that also implement
//     CatchUpper are fast-forwarded through the skipped edges whenever
//     another component could observe their state.  Components that
//     implement neither fall back to per-divisor ticking and see no
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
// they next need a tick.  NextWake is consulted immediately after each Tick:
// it returns the engine cycle of the component's next required tick (the
// engine rounds it up to the component's next local clock edge), or ok=false
// for "dormant" — the component will not need a tick until some other
// component wakes it through its registration Handle.
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
// The event scheduler calls CatchUp(through) to apply every local edge <=
// through in bulk: positionally during a cycle's evaluation pass (so a
// later-registered component reads exactly the state a tick-mode run would
// show), at the end of every pass, and once more at budget exhaustion.
// CatchUp must be idempotent for a given horizon.
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
	// evaluated yet this pass) or must move to the next local edge.
	passIdx int
	due     []uint64 // per registration: scheduled wake cycle (valid when pos >= 0)
	pos     []int32  // per registration: index into heap, -1 when not scheduled
	heap    []int32  // indexed binary min-heap of registration indices

	sched    SchedStats
	lastPass uint64
	havePass bool
}

// SchedStats are the event scheduler's activity counters: how hard the wake
// heap worked and how much idle time the scheduler actually skipped.  All
// zero under the tick scheduler.
type SchedStats struct {
	// Wakes counts component ticks delivered (min-heap pops).
	Wakes uint64
	// Passes counts evaluated cycles (each pass is one non-idle cycle).
	Passes uint64
	// MaxHeapDepth is the high-water mark of pending wakes.
	MaxHeapDepth int
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
	if rem := at % h.e.regs[h.idx].div; rem != 0 {
		at += h.e.regs[h.idx].div - rem
	}
	e.schedule(h.idx, at)
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
// after the full pass — as do budget exhaustion semantics: skipped edges up
// to maxCycles-1 are bulk-applied through CatchUp so the final counters are
// those of a tick-mode run of the same budget.
func (e *Engine) runEvent(maxCycles uint64) error {
	if e.due == nil {
		e.initEventState()
	}
	for {
		if e.stopped {
			return e.stopErr
		}
		if len(e.heap) == 0 {
			break
		}
		t := e.due[e.heap[0]]
		if t >= maxCycles {
			break
		}
		if e.havePass {
			e.sched.SkipBuckets[bits.Len64(t-e.lastPass)]++
		}
		e.lastPass, e.havePass = t, true
		e.sched.Passes++
		e.now = t
		e.pass(t)
		e.now = t + 1
	}
	if e.stopped {
		return e.stopErr
	}
	if maxCycles > 0 {
		for i := range e.regs {
			if c := e.regs[i].catch; c != nil {
				c.CatchUp(maxCycles - 1)
			}
		}
	}
	e.now = maxCycles
	return fmt.Errorf("%w (after %d cycles)", ErrMaxCycles, maxCycles)
}

// initEventState sizes the wake structure and schedules every component for
// cycle 0 (every divisor has an edge there, exactly as under Step).  All
// allocation happens here, once: schedule and pop are allocation-free in
// steady state (pinned by TestAllocsScheduler).
func (e *Engine) initEventState() {
	n := len(e.regs)
	e.due = make([]uint64, n)
	e.pos = make([]int32, n)
	e.heap = make([]int32, 0, n)
	for i := range e.pos {
		e.pos[i] = -1
	}
	for i := 0; i < n; i++ {
		e.schedule(int32(i), 0)
	}
}

// pass evaluates engine cycle t: every component with a pending wake at t is
// ticked in registration order, and every CatchUpper is fast-forwarded
// through t at (or before) the position it would have been ticked at under
// the tick scheduler, so intra-cycle reads observe tick-mode state.  Wakes
// scheduled during the pass for cycle t by not-yet-evaluated components
// join the same pass; Handle.Wake forces everything else to t+1 or later.
func (e *Engine) pass(t uint64) {
	walk := 0 // next registration index to consider for positional catch-up
	for len(e.heap) > 0 && e.due[e.heap[0]] == t {
		idx := e.popMin()
		e.sched.Wakes++
		i := int(idx)
		e.passIdx = i
		for ; walk < i; walk++ {
			if c := e.regs[walk].catch; c != nil {
				c.CatchUp(t)
			}
		}
		r := &e.regs[i]
		r.t.Tick(t)
		if walk == i {
			walk++ // the component's own Tick caught it up through t
		}
		if r.waker != nil {
			if next, ok := r.waker.NextWake(t); ok {
				if next <= t {
					next = t + 1 // a waker must move forward
				}
				if rem := next % r.div; rem != 0 {
					next += r.div - rem
				}
				e.schedule(idx, next)
			}
		} else {
			// Fallback for components without a wake condition: plain
			// per-divisor ticking, exactly as under the tick scheduler.
			e.schedule(idx, t+r.div)
		}
	}
	// End of pass: bring the remaining CatchUppers through t so every pass
	// boundary leaves the whole system in tick-mode-equivalent state (this
	// is what makes a Stop during this pass exact).
	for ; walk < len(e.regs); walk++ {
		if c := e.regs[walk].catch; c != nil {
			c.CatchUp(t)
		}
	}
	e.passIdx = -1
}

// schedule inserts or tightens the pending wake for registration idx
// (keep-earliest dedup).
func (e *Engine) schedule(idx int32, at uint64) {
	if p := e.pos[idx]; p >= 0 {
		if at >= e.due[idx] {
			return
		}
		e.due[idx] = at
		e.siftUp(int(p))
		return
	}
	e.due[idx] = at
	e.pos[idx] = int32(len(e.heap))
	e.heap = append(e.heap, idx)
	if len(e.heap) > e.sched.MaxHeapDepth {
		e.sched.MaxHeapDepth = len(e.heap)
	}
	e.siftUp(len(e.heap) - 1)
}

func (e *Engine) popMin() int32 {
	idx := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.pos[e.heap[0]] = 0
	e.heap = e.heap[:last]
	e.pos[idx] = -1
	if last > 0 {
		e.siftDown(0)
	}
	return idx
}

// less orders the heap by (wake cycle, registration index): ties on the
// cycle preserve tick-mode intra-cycle evaluation order.
func (e *Engine) less(a, b int32) bool {
	if e.due[a] != e.due[b] {
		return e.due[a] < e.due[b]
	}
	return a < b
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(e.heap[i], e.heap[parent]) {
			return
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		e.pos[e.heap[i]] = int32(i)
		e.pos[e.heap[parent]] = int32(parent)
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	for {
		best := i
		if l := 2*i + 1; l < n && e.less(e.heap[l], e.heap[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && e.less(e.heap[r], e.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		e.heap[i], e.heap[best] = e.heap[best], e.heap[i]
		e.pos[e.heap[i]] = int32(i)
		e.pos[e.heap[best]] = int32(best)
		i = best
	}
}
