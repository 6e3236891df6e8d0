package cpu

import (
	"testing"

	"hetcc/internal/bus"
	"hetcc/internal/cache"
	"hetcc/internal/coherence"
	"hetcc/internal/isa"
	"hetcc/internal/lock"
	"hetcc/internal/memory"
	"hetcc/internal/sim"
	"hetcc/internal/snooplogic"
)

const (
	sharedBase uint32 = 0x1000_0000
	lockWord   uint32 = 0x2000_0000
	turnWord   uint32 = 0x2000_0004
)

func attrAll(addr uint32) Attr {
	// Shared region cacheable; lock area uncached.
	return Attr{Cacheable: addr < 0x2000_0000}
}

type bench struct {
	t      *testing.T
	eng    *sim.Engine
	bus    *bus.Bus
	mem    *memory.Memory
	cpus   []*CPU
	ctls   []*cache.Controller
	snoops []*snooplogic.SnoopLogic
	halted int
}

// newBench builds n cores; snoopless[i] marks a coherence-less core that
// gets external snoop logic (its controller is not on the snoop network).
func newBench(t *testing.T, cfgs []Config, snoopless []bool, locks *lock.Manager) *bench {
	t.Helper()
	bn := &bench{t: t, eng: sim.NewEngine(), mem: memory.New()}
	bn.bus = bus.New(bus.Config{Timing: memory.DefaultTiming()}, bn.mem, nil)
	for i, cfg := range cfgs {
		arr, err := cache.New(cache.Config{SizeBytes: 1024, Ways: 2, LineBytes: 32}, coherence.New(coherence.MESI))
		if err != nil {
			t.Fatal(err)
		}
		ext := snoopless != nil && snoopless[i]
		ctl := cache.NewController(cfg.Name, arr, bn.bus, nil, !ext)
		var sl *snooplogic.SnoopLogic
		if ext {
			sl = snooplogic.New(cfg.Name+"-snoop", bn.bus, ctl.MasterID(), 32, nil, nil)
		}
		c := New(cfg, i, ctl, attrAll, locks, sl)
		if sl != nil {
			sl.SetFIQRaiser(c)
		}
		c.OnHalt(func(int) { bn.halted++ })
		bn.cpus = append(bn.cpus, c)
		bn.ctls = append(bn.ctls, ctl)
		bn.snoops = append(bn.snoops, sl)
		bn.eng.Register(cfg.Name, cfg.ClockDiv, c)
	}
	bn.eng.Register("bus", 2, sim.TickFunc(bn.bus.Tick))
	return bn
}

func (bn *bench) run(maxCycles uint64) {
	bn.t.Helper()
	for bn.eng.Now() < maxCycles && bn.halted < len(bn.cpus) {
		bn.eng.Step()
	}
	if bn.halted < len(bn.cpus) {
		bn.t.Fatalf("programs did not retire within %d cycles", maxCycles)
	}
}

func singleCore(t *testing.T, cfg Config) *bench {
	return newBench(t, []Config{cfg}, nil, nil)
}

func TestProgramExecutesAndHalts(t *testing.T) {
	bn := singleCore(t, Config{Name: "c0", ClockDiv: 1})
	prog := isa.NewBuilder().
		Write(sharedBase, 11).
		Read(sharedBase).
		Delay(5).
		Halt()
	if err := bn.cpus[0].LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	bn.run(10000)
	st := bn.cpus[0].Stats()
	if !st.Halted || st.Instructions != 4 {
		t.Fatalf("stats %+v", st)
	}
	if st.DelayCycles < 5 {
		t.Fatalf("delay cycles %d, want >= 5", st.DelayCycles)
	}
	if w, ok := bn.ctls[0].Cache().PeekWord(sharedBase); !ok || w != 11 {
		t.Fatal("store not in cache")
	}
}

func TestLoadStoreHooksFire(t *testing.T) {
	bn := singleCore(t, Config{Name: "c0", ClockDiv: 1})
	var loads, stores int
	var lastLoad uint32
	bn.cpus[0].SetHooks(Hooks{
		OnLoad:  func(_ int, _, val uint32, _ uint64) { loads++; lastLoad = val },
		OnStore: func(_ int, _, _ uint32, _ uint64) { stores++ },
	})
	prog := isa.NewBuilder().Write(sharedBase, 7).Read(sharedBase).Halt()
	bn.cpus[0].LoadProgram(prog)
	bn.run(10000)
	if loads != 1 || stores != 1 || lastLoad != 7 {
		t.Fatalf("loads=%d stores=%d lastLoad=%d", loads, stores, lastLoad)
	}
}

func TestUncachedAccessBypassesCache(t *testing.T) {
	bn := singleCore(t, Config{Name: "c0", ClockDiv: 1})
	prog := isa.NewBuilder().Write(lockWord+0x40, 3).Read(lockWord + 0x40).Halt()
	bn.cpus[0].LoadProgram(prog)
	bn.run(10000)
	if bn.mem.Peek(lockWord+0x40) != 3 {
		t.Fatal("uncached write lost")
	}
	if _, ok := bn.ctls[0].Cache().PeekWord(lockWord + 0x40); ok {
		t.Fatal("uncached access allocated")
	}
}

func TestAccessOverheadCharged(t *testing.T) {
	progOf := func() isa.Program {
		b := isa.NewBuilder()
		for i := 0; i < 50; i++ {
			b.Read(sharedBase) // hits after the first
		}
		return b.Halt()
	}
	bnFast := singleCore(t, Config{Name: "c0", ClockDiv: 1})
	bnFast.cpus[0].LoadProgram(progOf())
	bnFast.run(100000)
	fast := bnFast.cpus[0].Stats().HaltCycle

	bnSlow := singleCore(t, Config{Name: "c0", ClockDiv: 1, AccessOverhead: 4})
	bnSlow.cpus[0].LoadProgram(progOf())
	bnSlow.run(100000)
	slow := bnSlow.cpus[0].Stats().HaltCycle
	if slow <= fast+150 {
		t.Fatalf("overhead not charged: fast=%d slow=%d", fast, slow)
	}
}

func TestCleanLineWritesBack(t *testing.T) {
	bn := singleCore(t, Config{Name: "c0", ClockDiv: 1, CacheOpOverhead: 2})
	prog := isa.NewBuilder().Write(sharedBase, 9).Clean(sharedBase).Halt()
	bn.cpus[0].LoadProgram(prog)
	bn.run(10000)
	if bn.mem.Peek(sharedBase) != 9 {
		t.Fatal("clean did not write back")
	}
	if bn.ctls[0].Cache().StateOf(sharedBase) != coherence.Invalid {
		t.Fatal("clean did not invalidate")
	}
	if bn.cpus[0].Stats().CleanOps != 1 {
		t.Fatal("clean not counted")
	}
}

func TestInvalLineDiscardsAndNotifiesSnoopLogic(t *testing.T) {
	bn := newBench(t, []Config{{Name: "arm", ClockDiv: 2}}, []bool{true}, nil)
	prog := isa.NewBuilder().Read(sharedBase).Inval(sharedBase).Halt()
	bn.cpus[0].LoadProgram(prog)
	bn.run(10000)
	if bn.snoops[0].Holds(sharedBase) {
		t.Fatal("CAM entry survived software invalidate")
	}
}

func TestTwoCoresContendOnUncachedTASLock(t *testing.T) {
	mgr, err := lock.NewManager(lock.Config{
		Kind:      lock.UncachedTAS,
		Tasks:     2,
		Layout:    lock.Layout{LockWord: lockWord, TurnWord: turnWord},
		SpinDelay: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	bn := newBench(t, []Config{{Name: "c0", ClockDiv: 1}, {Name: "c1", ClockDiv: 1}}, nil, mgr)
	// Each core increments a shared counter under the lock 5 times; with
	// mutual exclusion the final value is exactly 10.  The increment is
	// modelled by reading then writing a distinct marching value.
	build := func(task int) isa.Program {
		b := isa.NewBuilder()
		for i := 0; i < 5; i++ {
			b.Lock(0)
			b.Read(sharedBase)
			b.Write(sharedBase, uint32(task*100+i))
			b.Unlock(0)
		}
		return b.Halt()
	}
	bn.cpus[0].LoadProgram(build(0))
	bn.cpus[1].LoadProgram(build(1))
	bn.run(1_000_000)
	s0, s1 := bn.cpus[0].Stats(), bn.cpus[1].Stats()
	if s0.LockAcquires != 5 || s1.LockAcquires != 5 || s0.LockReleases != 5 || s1.LockReleases != 5 {
		t.Fatalf("lock counts %d/%d acq, %d/%d rel", s0.LockAcquires, s1.LockAcquires, s0.LockReleases, s1.LockReleases)
	}
	if bn.mem.Peek(lockWord) != 0 {
		t.Fatal("lock left held")
	}
}

func TestAlternatingLockStrictOrder(t *testing.T) {
	mgr, err := lock.NewManager(lock.Config{
		Kind:      lock.UncachedTAS,
		Tasks:     2,
		Layout:    lock.Layout{LockWord: lockWord, TurnWord: turnWord},
		Alternate: true,
		SpinDelay: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	bn := newBench(t, []Config{{Name: "c0", ClockDiv: 1}, {Name: "c1", ClockDiv: 2}}, nil, mgr)
	var order []int
	for i := range bn.cpus {
		i := i
		bn.cpus[i].SetHooks(Hooks{OnStore: func(core int, addr, _ uint32, _ uint64) {
			if addr == sharedBase {
				order = append(order, core)
			}
		}})
	}
	build := func(task int) isa.Program {
		b := isa.NewBuilder()
		for i := 0; i < 4; i++ {
			b.Lock(0).Write(sharedBase, 1).Unlock(0)
		}
		return b.Halt()
	}
	bn.cpus[0].LoadProgram(build(0))
	bn.cpus[1].LoadProgram(build(1))
	bn.run(1_000_000)
	if len(order) != 8 {
		t.Fatalf("%d critical sections, want 8", len(order))
	}
	for i, c := range order {
		if c != i%2 {
			t.Fatalf("CS order %v not strictly alternating", order)
		}
	}
}

func TestFIQTriggersISRDrain(t *testing.T) {
	cfgs := []Config{
		{Name: "ppc", ClockDiv: 1},
		{Name: "arm", ClockDiv: 2, InterruptResponse: 4, ISREntry: 4, ISRExit: 4},
	}
	bn := newBench(t, cfgs, []bool{false, true}, nil)
	// ARM dirties a line, then loops on private work; PPC reads the line.
	armProg := isa.NewBuilder().Write(sharedBase, 21).Delay(2000).Halt()
	ppcProg := isa.NewBuilder().Delay(100).Read(sharedBase).Halt()
	bn.cpus[1].LoadProgram(armProg)
	bn.cpus[0].LoadProgram(ppcProg)
	var ppcLoad uint32
	bn.cpus[0].SetHooks(Hooks{OnLoad: func(_ int, _, val uint32, _ uint64) { ppcLoad = val }})
	bn.run(1_000_000)
	if ppcLoad != 21 {
		t.Fatalf("PPC read %d, want 21 (ISR drained the ARM line)", ppcLoad)
	}
	armStats := bn.cpus[1].Stats()
	if armStats.FIQsRaised != 1 || armStats.ISRRuns != 1 {
		t.Fatalf("ARM stats %+v", armStats)
	}
	if armStats.ISRCycles < 8 {
		t.Fatalf("ISR cycles %d suspiciously low", armStats.ISRCycles)
	}
	if bn.ctls[1].Cache().StateOf(sharedBase) != coherence.Invalid {
		t.Fatal("ARM line survived the drain")
	}
	if bn.snoops[1].Holds(sharedBase) {
		t.Fatal("CAM entry survived the drain")
	}
}

func TestInterruptResponseDelaysISR(t *testing.T) {
	run := func(resp int) uint64 {
		cfgs := []Config{
			{Name: "ppc", ClockDiv: 1},
			{Name: "arm", ClockDiv: 2, InterruptResponse: resp},
		}
		bn := newBench(t, cfgs, []bool{false, true}, nil)
		bn.cpus[1].LoadProgram(isa.NewBuilder().Write(sharedBase, 1).Delay(5000).Halt())
		bn.cpus[0].LoadProgram(isa.NewBuilder().Delay(50).Read(sharedBase).Halt())
		var loadedAt uint64
		bn.cpus[0].SetHooks(Hooks{OnLoad: func(_ int, _, _ uint32, now uint64) { loadedAt = now }})
		bn.run(1_000_000)
		return loadedAt
	}
	fast, slow := run(2), run(100)
	if slow <= fast+100 {
		t.Fatalf("interrupt response not honoured: fast=%d slow=%d", fast, slow)
	}
}

func TestQueuedFIQsServicedSequentially(t *testing.T) {
	cfgs := []Config{
		{Name: "ppc", ClockDiv: 1},
		{Name: "arm", ClockDiv: 2, InterruptResponse: 2},
	}
	bn := newBench(t, cfgs, []bool{false, true}, nil)
	// ARM dirties two lines; PPC reads both.
	bn.cpus[1].LoadProgram(isa.NewBuilder().Write(sharedBase, 1).Write(sharedBase+32, 2).Delay(4000).Halt())
	bn.cpus[0].LoadProgram(isa.NewBuilder().Delay(100).Read(sharedBase).Read(sharedBase + 32).Halt())
	bn.run(1_000_000)
	if got := bn.cpus[1].Stats().ISRRuns; got != 2 {
		t.Fatalf("ISR runs %d, want 2", got)
	}
}

func TestHaltWithEmptyishProgram(t *testing.T) {
	bn := singleCore(t, Config{Name: "c0", ClockDiv: 1})
	bn.cpus[0].LoadProgram(isa.NewBuilder().Halt())
	bn.run(100)
	if !bn.cpus[0].Halted() {
		t.Fatal("not halted")
	}
}

func TestLoadProgramRejectsInvalid(t *testing.T) {
	bn := singleCore(t, Config{Name: "c0", ClockDiv: 1})
	if err := bn.cpus[0].LoadProgram(isa.Program{{Kind: isa.Read}}); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestLockOpWithoutManagerPanics(t *testing.T) {
	bn := singleCore(t, Config{Name: "c0", ClockDiv: 1})
	bn.cpus[0].LoadProgram(isa.NewBuilder().Lock(0).Halt())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	bn.run(100)
}

func TestWaitEqUncachedPolls(t *testing.T) {
	bn := singleCore(t, Config{Name: "c0", ClockDiv: 1})
	// Mailbox in the uncached region (>= 0x2000_0000 per attrAll).
	mailbox := uint32(0x2000_0100)
	prog := isa.NewBuilder().WaitEq(mailbox, 5).Halt()
	bn.cpus[0].LoadProgram(prog)
	// Set the mailbox from outside after some cycles.
	fired := false
	bn.eng.Register("setter", 1, sim.TickFunc(func(now uint64) {
		if now == 300 && !fired {
			fired = true
			bn.mem.Poke(mailbox, 5)
		}
	}))
	bn.run(100000)
	if bn.cpus[0].Stats().HaltCycle < 300 {
		t.Fatalf("halted at %d, before the mailbox was set", bn.cpus[0].Stats().HaltCycle)
	}
}

func TestWaitEqCachedImmediateMatch(t *testing.T) {
	bn := singleCore(t, Config{Name: "c0", ClockDiv: 1})
	prog := isa.NewBuilder().Write(sharedBase, 9).WaitEq(sharedBase, 9).Halt()
	bn.cpus[0].LoadProgram(prog)
	bn.run(10000)
	if !bn.cpus[0].Halted() {
		t.Fatal("did not halt")
	}
}

// TestHaltedCoreStillServicesFIQ: a retired task's core must keep running
// the drain ISR, or the other master would wedge (e.g. BCS hand-off).
func TestHaltedCoreStillServicesFIQ(t *testing.T) {
	cfgs := []Config{
		{Name: "ppc", ClockDiv: 1},
		{Name: "arm", ClockDiv: 2, InterruptResponse: 2},
	}
	bn := newBench(t, cfgs, []bool{false, true}, nil)
	// ARM dirties a line and halts immediately; PPC reads it afterwards.
	bn.cpus[1].LoadProgram(isa.NewBuilder().Write(sharedBase, 77).Halt())
	bn.cpus[0].LoadProgram(isa.NewBuilder().Delay(400).Read(sharedBase).Halt())
	var got uint32
	bn.cpus[0].SetHooks(Hooks{OnLoad: func(_ int, _, v uint32, _ uint64) { got = v }})
	bn.run(1_000_000)
	if got != 77 {
		t.Fatalf("PPC read %d, want 77 (halted ARM must still drain)", got)
	}
	if bn.cpus[1].Stats().ISRRuns != 1 {
		t.Fatal("halted ARM did not run the ISR")
	}
}

// TestISRPreemptsDelayAndResumesIt: the interrupted computation's remaining
// cycles must survive the ISR.
func TestISRPreemptsDelayAndResumesIt(t *testing.T) {
	cfgs := []Config{
		{Name: "ppc", ClockDiv: 1},
		{Name: "arm", ClockDiv: 2, InterruptResponse: 2, ISREntry: 2, ISRExit: 2},
	}
	bn := newBench(t, cfgs, []bool{false, true}, nil)
	// ARM: dirty a line, then a long Delay during which the FIQ arrives.
	bn.cpus[1].LoadProgram(isa.NewBuilder().Write(sharedBase, 1).Delay(1000).Halt())
	bn.cpus[0].LoadProgram(isa.NewBuilder().Delay(50).Read(sharedBase).Halt())
	bn.run(1_000_000)
	armStats := bn.cpus[1].Stats()
	if armStats.ISRRuns != 1 {
		t.Fatalf("ISR runs %d", armStats.ISRRuns)
	}
	// The ARM's total run must cover the full 1000-cycle delay (x2 for
	// clock div) plus the ISR work: the preempted delay resumed.
	if armStats.HaltCycle < 2000 {
		t.Fatalf("ARM halted at %d: preempted delay was not resumed", armStats.HaltCycle)
	}
	// PPC must have completed long before the ARM's delay expired — the
	// interrupt preempted the computation rather than waiting it out.
	ppcHalt := bn.cpus[0].Stats().HaltCycle
	if ppcHalt > 500 {
		t.Fatalf("PPC waited until %d: FIQ did not preempt the delay", ppcHalt)
	}
}
