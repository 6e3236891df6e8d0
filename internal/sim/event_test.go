package sim

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// wakerFunc is a Waker whose wake condition is supplied per test.
type wakerFunc struct {
	tick func(now uint64)
	next func(now uint64) (uint64, bool)
}

func (w *wakerFunc) Tick(now uint64) { w.tick(now) }
func (w *wakerFunc) NextWake(now uint64) (uint64, bool) {
	if w.next == nil {
		return 0, false
	}
	return w.next(now)
}

// lazyCounter models the Timer idiom: it never needs a tick of its own, and
// bulk-applies skipped local edges (at cycles 0, div, 2*div, ...) whenever the
// scheduler catches it up.
type lazyCounter struct {
	div   uint64
	edges uint64 // number of local edges applied
}

func (c *lazyCounter) Tick(now uint64)                { c.sync(now) }
func (c *lazyCounter) NextWake(uint64) (uint64, bool) { return 0, false }
func (c *lazyCounter) CatchUp(through uint64)         { c.sync(through) }
func (c *lazyCounter) sync(x uint64) {
	if t := x/c.div + 1; t > c.edges {
		c.edges = t
	}
}

// pullCounter is a dormant lazyCounter read the way the bus and the timer
// are: a reader brings it current through its Handle's horizon first.  It
// counts the engine's own CatchUp calls.
type pullCounter struct {
	lazyCounter
	h        *Handle
	catchUps int
}

func (c *pullCounter) CatchUp(through uint64) {
	c.catchUps++
	c.lazyCounter.CatchUp(through)
}

func (c *pullCounter) read() uint64 {
	if through, ok := c.h.Horizon(); ok {
		c.sync(through)
	}
	return c.edges
}

// pullReads runs two readers around a dormant div-2 pullCounter, one
// registered before it and one after, each reading it at cycles 3, 4, 7 and
// 10, and returns what each read saw.
func pullReads(t *testing.T, event bool) (before, after []uint64) {
	t.Helper()
	e := NewEngine()
	c := &pullCounter{lazyCounter: lazyCounter{div: 2}}
	reader := func(out *[]uint64) *wakerFunc {
		w := &wakerFunc{}
		w.tick = func(now uint64) {
			switch now {
			case 3, 4, 7, 10:
				*out = append(*out, c.read())
			}
		}
		w.next = func(uint64) (uint64, bool) { return 1, true }
		return w
	}
	e.Register("before", 1, reader(&before))
	c.h = e.Register("ctr", 2, c)
	e.Register("after", 1, reader(&after))
	if event {
		e.UseEventScheduler()
	}
	if err := e.Run(12); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	return before, after
}

// TestEventPullHorizon pins the pull contract: a reader evaluated before a
// dormant CatchUpper sees its edges through the previous cycle, a reader
// evaluated after it sees the current cycle's edge too — exactly the tick
// scheduler's view, where the component is ticked between the two.
func TestEventPullHorizon(t *testing.T) {
	// Edges lie at 0, 2, 4, ...: through cycle x there are x/2+1 of them.
	wantBefore := []uint64{2/2 + 1, 3/2 + 1, 6/2 + 1, 9/2 + 1}
	wantAfter := []uint64{3/2 + 1, 4/2 + 1, 7/2 + 1, 10/2 + 1}
	for _, event := range []bool{false, true} {
		before, after := pullReads(t, event)
		if fmt.Sprint(before) != fmt.Sprint(wantBefore) {
			t.Errorf("event=%v: earlier reader saw %v, want %v", event, before, wantBefore)
		}
		if fmt.Sprint(after) != fmt.Sprint(wantAfter) {
			t.Errorf("event=%v: later reader saw %v, want %v", event, after, wantAfter)
		}
	}
}

// TestEventCatchUpOnlyAtRunEnd: the event scheduler calls CatchUp once per
// CatchUpper, when the run ends — after the pass in which Stop was called,
// or at budget exhaustion — however many passes ran before.
func TestEventCatchUpOnlyAtRunEnd(t *testing.T) {
	for _, stopAt := range []uint64{0, 9, 50} {
		e := NewEngine()
		w := &wakerFunc{next: func(uint64) (uint64, bool) { return 1, true }}
		w.tick = func(now uint64) {
			if now == stopAt {
				e.Stop("stop", nil)
			}
		}
		e.Register("stopper", 1, w)
		c := &pullCounter{lazyCounter: lazyCounter{div: 3}}
		c.h = e.Register("ctr", 3, c)
		e.UseEventScheduler()
		err := e.Run(20)
		if stopAt < 20 && err != nil || stopAt >= 20 && !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("stop at %d: err = %v", stopAt, err)
		}
		if passes := e.SchedStats().Passes; passes < 10 && stopAt >= 9 {
			t.Fatalf("stop at %d: only %d passes ran", stopAt, passes)
		}
		if c.catchUps != 1 {
			t.Errorf("stop at %d: CatchUp called %d times, want once", stopAt, c.catchUps)
		}
	}
}

// TestEventMidPassStopMatchesTick: a Stop called by a component in the
// middle of a pass leaves dormant CatchUppers on both sides of it with the
// tick scheduler's counts, and the engine at the same cycle.
func TestEventMidPassStopMatchesTick(t *testing.T) {
	for _, stopAt := range []uint64{6, 7, 9} {
		var got [2][2]uint64
		var now [2]uint64
		for i, event := range []bool{false, true} {
			e := NewEngine()
			before := &lazyCounter{div: 3}
			after := &lazyCounter{div: 2}
			e.Register("before", 3, before)
			w := &wakerFunc{next: func(now uint64) (uint64, bool) { return stopAt - now, true }}
			w.tick = func(now uint64) {
				if now == stopAt {
					e.Stop("stop", nil)
				}
			}
			e.Register("stopper", 1, w)
			e.Register("after", 2, after)
			if event {
				e.UseEventScheduler()
			}
			if err := e.Run(100); err != nil {
				t.Fatalf("stop at %d, event=%v: err = %v", stopAt, event, err)
			}
			got[i] = [2]uint64{before.edges, after.edges}
			now[i] = e.Now()
		}
		if got[0] != got[1] || now[0] != now[1] {
			t.Errorf("stop at %d: tick edges %v at cycle %d, event edges %v at cycle %d",
				stopAt, got[0], now[0], got[1], now[1])
		}
	}
}

// TestEventTieBreakRegistrationOrder: wakes pending for the same cycle are
// evaluated in registration order, so the intra-cycle order is exactly the
// tick scheduler's.
func TestEventTieBreakRegistrationOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		w := &wakerFunc{}
		w.tick = func(now uint64) { order = append(order, fmt.Sprintf("%s@%d", name, now)) }
		w.next = func(uint64) (uint64, bool) { return 3, true }
		e.Register(name, 1, w)
	}
	e.UseEventScheduler()
	if err := e.Run(7); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	want := []string{"a@0", "b@0", "c@0", "a@3", "b@3", "c@3", "a@6", "b@6", "c@6"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("evaluation order %v, want %v", order, want)
	}
}

// TestEventRunAgainTieRule: a component that wakes every cycle shares the
// wake table with one that wakes every third cycle.  On the cycles both are
// due, the pass walks the table in registration order, so whichever was
// registered first runs first, exactly as under Step; in between, the
// every-cycle component runs alone.  The scheduler counts one wake per tick
// and one pass per cycle.
func TestEventRunAgainTieRule(t *testing.T) {
	const cycles = 9
	for _, everyFirst := range []bool{false, true} {
		e := NewEngine()
		var order []string
		add := func(name string, period uint64) {
			w := &wakerFunc{}
			w.tick = func(now uint64) { order = append(order, fmt.Sprintf("%s@%d", name, now)) }
			w.next = func(uint64) (uint64, bool) { return period, true }
			e.Register(name, 1, w)
		}
		if everyFirst {
			add("every", 1)
			add("third", 3)
		} else {
			add("third", 3)
			add("every", 1)
		}
		e.UseEventScheduler()
		if err := e.Run(cycles); !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("err = %v, want ErrMaxCycles", err)
		}
		var want []string
		for c := 0; c < cycles; c++ {
			if everyFirst {
				want = append(want, fmt.Sprintf("every@%d", c))
			}
			if c%3 == 0 {
				want = append(want, fmt.Sprintf("third@%d", c))
			}
			if !everyFirst {
				want = append(want, fmt.Sprintf("every@%d", c))
			}
		}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("everyFirst=%v: evaluation order %v, want %v", everyFirst, order, want)
		}
		st := e.SchedStats()
		if st.Wakes != uint64(len(want)) || st.Passes != cycles || st.SkipBuckets[1] != cycles-1 {
			t.Fatalf("everyFirst=%v: stats %+v, want %d wakes, %d passes, %d adjacent jumps",
				everyFirst, st, len(want), cycles, cycles-1)
		}
	}
}

// TestEventWakeInThePast: a wake targeting a cycle that already passed
// degrades to "tick me at my next feasible edge" — the current cycle if the
// target has not been evaluated this pass, the next local edge otherwise.
func TestEventWakeInThePast(t *testing.T) {
	e := NewEngine()
	var early, late []uint64

	// Registered before the controller: by the time the controller runs at
	// cycle 5, this component has been evaluated, so a past wake lands at 6.
	target0 := &wakerFunc{tick: func(now uint64) { early = append(early, now) }}
	h0 := e.Register("early", 1, target0)

	var h2 *Handle
	ctrl := &wakerFunc{next: func(uint64) (uint64, bool) { return 5, true }}
	ctrl.tick = func(now uint64) {
		if now == 5 {
			h0.Wake(1) // past, already evaluated this pass -> cycle 6
			h2.Wake(1) // past, not yet evaluated this pass -> cycle 5
		}
	}
	e.Register("ctrl", 1, ctrl)

	target2 := &wakerFunc{tick: func(now uint64) { late = append(late, now) }}
	h2 = e.Register("late", 1, target2)

	e.UseEventScheduler()
	if err := e.Run(20); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	if fmt.Sprint(early) != fmt.Sprint([]uint64{0, 6}) {
		t.Fatalf("already-evaluated target ticked at %v, want [0 6]", early)
	}
	if fmt.Sprint(late) != fmt.Sprint([]uint64{0, 5}) {
		t.Fatalf("not-yet-evaluated target ticked at %v, want [0 5]", late)
	}
}

// TestEventDuplicateWakesKeepEarliest: re-waking a component tightens its
// pending wake monotonically — a later wake never postpones an earlier one —
// and wakes are rounded up to the component's local clock edge.
func TestEventDuplicateWakesKeepEarliest(t *testing.T) {
	e := NewEngine()
	var ticks []uint64

	// The controller issues the wakes at cycle 3, once the target's initial
	// cycle-0 wake has been consumed and it sits dormant.
	var hT *Handle
	ctrl := &wakerFunc{next: func(uint64) (uint64, bool) { return 3, true }}
	ctrl.tick = func(now uint64) {
		if now == 3 {
			hT.Wake(20)
			hT.Wake(30) // later than pending: ignored
			hT.Wake(9)  // earlier: tightens, rounds up to the div=2 edge at 10
		}
	}
	e.Register("ctrl", 1, ctrl)
	target := &wakerFunc{tick: func(now uint64) { ticks = append(ticks, now) }}
	hT = e.Register("target", 2, target)

	e.UseEventScheduler()
	if err := e.Run(100); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	if fmt.Sprint(ticks) != fmt.Sprint([]uint64{0, 10}) {
		t.Fatalf("target ticked at %v, want [0 10] (earliest wake, edge-aligned)", ticks)
	}
}

// TestEventFastForwardHugeCycles: divisor fast-forward stays exact at
// wraparound-scale cycle counts — a dormant CatchUpper skipped across 2^40+
// cycles in a handful of passes must account for exactly the edges a 2^40
// tick-mode loop would have delivered.
func TestEventFastForwardHugeCycles(t *testing.T) {
	const stride = uint64(1) << 40
	e := NewEngine()
	stepper := &wakerFunc{}
	stepper.tick = func(now uint64) {
		if now >= 3*stride {
			e.Stop("done", nil)
		}
	}
	stepper.next = func(uint64) (uint64, bool) { return stride, true }
	e.Register("stepper", 1, stepper)
	counters := []*lazyCounter{{div: 1}, {div: 2}, {div: 4}, {div: 10000}}
	for i, c := range counters {
		e.Register(fmt.Sprintf("ctr%d", i), c.div, c)
	}
	e.UseEventScheduler()
	if err := e.Run(1 << 50); err != nil {
		t.Fatalf("err = %v, want nil (normal stop)", err)
	}
	stop := 3 * stride
	if e.Now() != stop+1 {
		t.Fatalf("stopped at %d, want %d", e.Now(), stop+1)
	}
	for _, c := range counters {
		if want := stop/c.div + 1; c.edges != want {
			t.Fatalf("div=%d counter saw %d edges, want %d", c.div, c.edges, want)
		}
	}
}

// TestEventBudgetExhaustionCatchesUp: when the budget runs out, skipped edges
// through maxCycles-1 are bulk-applied so the final counters match a tick-mode
// run of the same budget, and Now() lands exactly on the budget.
func TestEventBudgetExhaustionCatchesUp(t *testing.T) {
	e := NewEngine()
	idle := &wakerFunc{tick: func(uint64) {}}
	e.Register("idle", 1, idle) // dormant after cycle 0
	c := &lazyCounter{div: 3}
	e.Register("ctr", 3, c)
	e.UseEventScheduler()
	if err := e.Run(100); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	if e.Now() != 100 {
		t.Fatalf("ran %d cycles, want 100", e.Now())
	}
	if want := uint64(99)/3 + 1; c.edges != want {
		t.Fatalf("counter saw %d edges, want %d", c.edges, want)
	}
}

// TestEventStopMatchesTickSemantics pins the tick-mode ground truth under the
// event scheduler: a stop requested during cycle 5 takes effect with Now()==6.
func TestEventStopMatchesTickSemantics(t *testing.T) {
	e := NewEngine()
	sentinel := errors.New("done")
	w := &wakerFunc{next: func(uint64) (uint64, bool) { return 1, true }}
	w.tick = func(now uint64) {
		if now == 5 {
			e.Stop("five", sentinel)
		}
	}
	e.Register("stopper", 1, w)
	e.UseEventScheduler()
	if err := e.Run(1000); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if e.Now() != 6 {
		t.Fatalf("stopped at %d, want 6", e.Now())
	}
}

// periodic acts on every period-th local edge: the Waker/CatchUpper shape of
// the CPU cores (long stretches of skippable edges punctuated by edges whose
// effects are observable).  Both schedulers must record identical action
// sequences and apply identical edge counts.
type periodic struct {
	div     uint64
	period  uint64
	applied uint64   // local edges applied (edge j lies at cycle j*div)
	acts    []uint64 // cycles of the action edges, in order
}

func (p *periodic) applyThrough(cycle uint64) {
	for j := p.applied; j <= cycle/p.div; j++ {
		if j%p.period == 0 {
			p.acts = append(p.acts, j*p.div)
		}
	}
	if t := cycle/p.div + 1; t > p.applied {
		p.applied = t
	}
}

func (p *periodic) Tick(now uint64)        { p.applyThrough(now) }
func (p *periodic) CatchUp(through uint64) { p.applyThrough(through) }
func (p *periodic) NextWake(uint64) (uint64, bool) {
	next := ((p.applied + p.period - 1) / p.period) * p.period
	return next - (p.applied - 1), true // edges after the one just applied
}

// TestEventTickEquivalenceProperty is the kernel-level equivalence property:
// for random divisor/period mixes, an event-scheduled run and a tick-scheduled
// run of the same budget produce identical action sequences and edge counts
// for every component.
func TestEventTickEquivalenceProperty(t *testing.T) {
	f := func(d1, p1, d2, p2, budgetRaw uint8) bool {
		mk := func() []*periodic {
			return []*periodic{
				{div: uint64(d1%6) + 1, period: uint64(p1%13) + 1},
				{div: uint64(d2%6) + 1, period: uint64(p2%13) + 1},
			}
		}
		budget := uint64(budgetRaw)%2000 + 1
		run := func(comps []*periodic, event bool) {
			e := NewEngine()
			for i, c := range comps {
				e.Register(fmt.Sprintf("p%d", i), c.div, c)
			}
			if event {
				e.UseEventScheduler()
			}
			if err := e.Run(budget); !errors.Is(err, ErrMaxCycles) {
				t.Fatalf("err = %v, want ErrMaxCycles", err)
			}
		}
		tick, event := mk(), mk()
		run(tick, false)
		run(event, true)
		for i := range tick {
			if tick[i].applied != event[i].applied {
				t.Logf("component %d: %d edges under tick, %d under event", i, tick[i].applied, event[i].applied)
				return false
			}
			if fmt.Sprint(tick[i].acts) != fmt.Sprint(event[i].acts) {
				t.Logf("component %d: acts %v under tick, %v under event", i, tick[i].acts, event[i].acts)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAllocsScheduler pins the steady-state wake table at zero
// allocations: all allocation happens once in initEventState, and
// schedule and pass on a warmed table never allocate (the `make allocs`
// gate).
func TestAllocsScheduler(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 8; i++ {
		// Dormant after every tick, so each round drains the table.
		e.Register(fmt.Sprintf("w%d", i), 1, &wakerFunc{tick: func(uint64) {}})
	}
	e.UseEventScheduler()
	e.initEventState()
	e.pass(0)
	avg := testing.AllocsPerRun(200, func() {
		base := e.now
		for i := 0; i < 8; i++ {
			e.schedule(i, base+uint64(13-i))
		}
		e.schedule(3, base+1) // tighten a pending wake
		for e.nextDue = e.minDue(); e.nextDue != dormant; {
			e.pass(e.nextDue)
		}
	})
	if avg != 0 {
		t.Fatalf("schedule/pass steady state allocates %.1f times per run, want 0", avg)
	}
}

// TestEventWakeJoinsPass: a wake at the current cycle to a dormant
// component the pass has not reached yet (a higher registration index)
// runs it in the same pass; a wake to a lower or the same index waits for
// its next edge, exactly as under Step, where those components have
// already been ticked this cycle.
func TestEventWakeJoinsPass(t *testing.T) {
	e := NewEngine()
	var order []string
	var ha, hb, hc *Handle
	rec := func(name string) func(uint64) {
		return func(now uint64) { order = append(order, fmt.Sprintf("%s@%d", name, now)) }
	}
	b := &wakerFunc{}
	b.tick = func(now uint64) {
		order = append(order, fmt.Sprintf("b@%d", now))
		if now == 2 {
			hb.Wake(now) // itself: next edge
			ha.Wake(now) // lower index, already evaluated: next edge
			hc.Wake(now) // higher index, not reached yet: this pass
			hc.Wake(now) // a duplicate changes nothing
		}
	}
	b.next = func(now uint64) (uint64, bool) { return 2, now == 0 }
	ha = e.Register("a", 1, &wakerFunc{tick: rec("a")})
	hb = e.Register("b", 1, b)
	hc = e.Register("c", 1, &wakerFunc{tick: rec("c")})
	e.UseEventScheduler()
	if err := e.Run(10); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	want := []string{"a@0", "b@0", "c@0", "b@2", "c@2", "a@3", "b@3"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("evaluation order %v, want %v", order, want)
	}
	// Passes at 0, 2 and 3.
	st := e.SchedStats()
	if st.Wakes != uint64(len(want)) || st.Passes != 3 {
		t.Fatalf("stats %+v, want %d wakes, 3 passes", st, len(want))
	}
}
