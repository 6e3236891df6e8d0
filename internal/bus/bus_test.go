package bus

import (
	"errors"
	"testing"

	"hetcc/internal/memory"
	"hetcc/internal/sim"
)

func newTestBus(t *testing.T) (*Bus, *memory.Memory) {
	t.Helper()
	mem := memory.New()
	b := New(Config{Timing: memory.DefaultTiming()}, mem)
	return b, mem
}

// run ticks the bus until idle or the budget runs out.
func run(t *testing.T, b *Bus, budget int) {
	t.Helper()
	for i := 0; i < budget; i++ {
		b.Tick(uint64(i))
		if b.Idle() {
			return
		}
	}
	if !b.Idle() {
		t.Fatalf("bus not idle after %d cycles", budget)
	}
}

type fakeSnooper struct {
	reply SnoopReply
	seen  []*Transaction
}

func (f *fakeSnooper) SnoopBus(t *Transaction) SnoopReply {
	f.seen = append(f.seen, t)
	return f.reply
}

func TestWordWriteReadRoundTrip(t *testing.T) {
	b, mem := newTestBus(t)
	m := b.AddMaster("m")
	var got uint32
	b.Submit(&Transaction{Master: m, Kind: WriteWord, Addr: 0x100, Val: 99}, nil)
	b.Submit(&Transaction{Master: m, Kind: ReadWord, Addr: 0x100}, func(r Result) { got = r.Val })
	run(t, b, 100)
	if got != 99 {
		t.Fatalf("read back %d, want 99", got)
	}
	if mem.Peek(0x100) != 99 {
		t.Fatal("memory not written")
	}
}

func TestLineFillLatencyMatchesTiming(t *testing.T) {
	b, _ := newTestBus(t)
	m := b.AddMaster("m")
	doneAt := -1
	b.Submit(&Transaction{Master: m, Kind: ReadLine, Addr: 0x200, Words: 8}, func(Result) {})
	for i := 0; i < 100; i++ {
		b.Tick(uint64(i))
		if b.Idle() {
			doneAt = i
			break
		}
	}
	// grant(1) + address(1) + 13 data cycles = 15 cycles of occupancy.
	if doneAt != 14 {
		t.Fatalf("8-word fill finished after tick %d, want 14 (2+13 cycles)", doneAt)
	}
}

func TestRMWIsAtomicAndReturnsOldValue(t *testing.T) {
	b, mem := newTestBus(t)
	m := b.AddMaster("m")
	mem.Poke(0x300, 0)
	var old1, old2 uint32 = 99, 99
	b.Submit(&Transaction{Master: m, Kind: RMWWord, Addr: 0x300, Val: 1}, func(r Result) { old1 = r.Val })
	b.Submit(&Transaction{Master: m, Kind: RMWWord, Addr: 0x300, Val: 1}, func(r Result) { old2 = r.Val })
	run(t, b, 100)
	if old1 != 0 || old2 != 1 {
		t.Fatalf("TAS olds = %d,%d, want 0,1", old1, old2)
	}
}

func TestRoundRobinArbitration(t *testing.T) {
	b, _ := newTestBus(t)
	m0 := b.AddMaster("m0")
	m1 := b.AddMaster("m1")
	var order []int
	for i := 0; i < 3; i++ {
		b.Submit(&Transaction{Master: m0, Kind: WriteWord, Addr: 0x10, Val: 1}, func(Result) { order = append(order, 0) })
		b.Submit(&Transaction{Master: m1, Kind: WriteWord, Addr: 0x20, Val: 2}, func(Result) { order = append(order, 1) })
	}
	run(t, b, 500)
	if len(order) != 6 {
		t.Fatalf("%d completions, want 6", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("arbitration not alternating: %v", order)
		}
	}
}

func TestSnoopersSeeOtherMastersOnly(t *testing.T) {
	b, _ := newTestBus(t)
	m0 := b.AddMaster("m0")
	m1 := b.AddMaster("m1")
	s0 := &fakeSnooper{}
	b.AddSnooper(m0, s0)
	b.Submit(&Transaction{Master: m0, Kind: ReadWord, Addr: 0x10}, nil)
	b.Submit(&Transaction{Master: m1, Kind: ReadWord, Addr: 0x20}, nil)
	run(t, b, 100)
	if len(s0.seen) != 1 || s0.seen[0].Addr != 0x20 {
		t.Fatalf("snooper of m0 saw %v, want only m1's 0x20", s0.seen)
	}
}

func TestWriteBacksAreNotSnooped(t *testing.T) {
	b, _ := newTestBus(t)
	m0 := b.AddMaster("m0")
	m1 := b.AddMaster("m1")
	s0 := &fakeSnooper{}
	b.AddSnooper(m0, s0)
	b.Submit(&Transaction{Master: m1, Kind: WriteLine, Addr: 0x40, Data: make([]uint32, 8)}, nil)
	run(t, b, 100)
	if len(s0.seen) != 0 {
		t.Fatalf("write-back snooped: %v", s0.seen)
	}
}

func TestSharedSignalCombines(t *testing.T) {
	b, _ := newTestBus(t)
	m0 := b.AddMaster("m0")
	m1 := b.AddMaster("m1")
	m2 := b.AddMaster("m2")
	b.AddSnooper(m1, &fakeSnooper{})
	b.AddSnooper(m2, &fakeSnooper{reply: SnoopReply{Shared: true}})
	var shared bool
	b.Submit(&Transaction{Master: m0, Kind: ReadLine, Addr: 0x80, Words: 8}, func(r Result) { shared = r.Shared })
	run(t, b, 100)
	if !shared {
		t.Fatal("shared signal lost")
	}
}

func TestRetryRequeuesAndEventuallyCompletes(t *testing.T) {
	b, _ := newTestBus(t)
	m0 := b.AddMaster("m0")
	m1 := b.AddMaster("m1")
	sn := &fakeSnooper{reply: SnoopReply{Retry: true}}
	b.AddSnooper(m1, sn)
	completed := false
	b.Submit(&Transaction{Master: m0, Kind: ReadLine, Addr: 0x80, Words: 8}, func(Result) { completed = true })
	// Let it get ARTRYed a few times, then clear the retry condition.
	for i := 0; i < 40; i++ {
		b.Tick(uint64(i))
	}
	if completed {
		t.Fatal("completed while retry asserted")
	}
	sn.reply = SnoopReply{}
	for i := 40; i < 200; i++ {
		b.Tick(uint64(i))
	}
	if !completed {
		t.Fatal("never completed after retry cleared")
	}
	if b.Stats().Aborted == 0 {
		t.Fatal("no aborts recorded")
	}
}

func TestCacheToCacheSupply(t *testing.T) {
	b, mem := newTestBus(t)
	m0 := b.AddMaster("m0")
	m1 := b.AddMaster("m1")
	line := []uint32{10, 20, 30, 40, 50, 60, 70, 80}
	b.AddSnooper(m1, &fakeSnooper{reply: SnoopReply{Shared: true, Supply: true, Data: line}})
	mem.WriteLine(0x100, make([]uint32, 8)) // memory holds zeros (stale)
	var res Result
	// Result.Data is only valid during the callback (pooled buffer): copy.
	b.Submit(&Transaction{Master: m0, Kind: ReadLine, Addr: 0x100, Words: 8}, func(r Result) {
		res = r
		res.Data = append([]uint32(nil), r.Data...)
	})
	run(t, b, 100)
	if !res.Supplied {
		t.Fatal("supply not flagged")
	}
	for i, v := range line {
		if res.Data[i] != v {
			t.Fatalf("word %d = %d, want %d (owner data, not memory)", i, res.Data[i], v)
		}
	}
	if b.Stats().Supplied != 1 {
		t.Fatal("supply not counted")
	}
}

func TestPreferNextOverridesRoundRobin(t *testing.T) {
	b, _ := newTestBus(t)
	m0 := b.AddMaster("m0")
	m1 := b.AddMaster("m1")
	m2 := b.AddMaster("m2")
	_ = m1
	var order []int
	submit := func(m int) {
		b.Submit(&Transaction{Master: m, Kind: WriteWord, Addr: 0x10, Val: 1}, func(Result) { order = append(order, m) })
	}
	submit(m0)
	submit(m1)
	submit(m2)
	b.PreferNext(m2)
	run(t, b, 300)
	if order[0] != m2 {
		t.Fatalf("grant order %v, want m2 first (BOFF)", order)
	}
}

type fakeDevice struct {
	base     uint32
	val      uint32
	accesses int
}

func (d *fakeDevice) Contains(addr uint32) bool { return addr == d.base }
func (d *fakeDevice) Access(t *Transaction) (int, Result) {
	d.accesses++
	switch t.Kind {
	case ReadWord:
		return 1, Result{Val: d.val}
	case WriteWord:
		d.val = t.Val
		return 1, Result{}
	default:
		return 1, Result{}
	}
}

func TestDeviceDecodedBeforeMemory(t *testing.T) {
	b, mem := newTestBus(t)
	m := b.AddMaster("m")
	dev := &fakeDevice{base: 0x3000_0000}
	b.AddDevice(dev)
	mem.Poke(0x3000_0000, 77) // memory alias must NOT be read
	var got uint32
	b.Submit(&Transaction{Master: m, Kind: WriteWord, Addr: 0x3000_0000, Val: 5}, nil)
	b.Submit(&Transaction{Master: m, Kind: ReadWord, Addr: 0x3000_0000}, func(r Result) { got = r.Val })
	run(t, b, 100)
	if got != 5 || dev.accesses != 2 {
		t.Fatalf("device read %d (accesses %d), want 5 (2)", got, dev.accesses)
	}
	if mem.Peek(0x3000_0000) != 77 {
		t.Fatal("device write leaked into memory")
	}
}

func TestObserverSeesCompletions(t *testing.T) {
	b, _ := newTestBus(t)
	m := b.AddMaster("m")
	var kinds []Kind
	b.AddObserver(func(tr *Transaction, _ Result) { kinds = append(kinds, tr.Kind) })
	b.Submit(&Transaction{Master: m, Kind: ReadLine, Addr: 0x40, Words: 8}, nil)
	b.Submit(&Transaction{Master: m, Kind: WriteLine, Addr: 0x40, Data: make([]uint32, 8)}, nil)
	run(t, b, 200)
	if len(kinds) != 2 || kinds[0] != ReadLine || kinds[1] != WriteLine {
		t.Fatalf("observer saw %v", kinds)
	}
}

func TestDeadlockDetectorConsecutiveAborts(t *testing.T) {
	mem := memory.New()
	b := New(Config{Timing: memory.DefaultTiming(), DeadlockThreshold: 16, RetryBackoff: 1}, mem)
	m0 := b.AddMaster("m0")
	m1 := b.AddMaster("m1")
	b.AddSnooper(m1, &fakeSnooper{reply: SnoopReply{Retry: true}})
	fired := false
	b.OnDeadlock(func(int, int) { fired = true })
	b.Submit(&Transaction{Master: m0, Kind: ReadLine, Addr: 0x40, Words: 8}, nil)
	for i := 0; i < 1000 && !fired; i++ {
		b.Tick(uint64(i))
	}
	if !fired || !b.Deadlocked() {
		t.Fatal("deadlock detector did not fire on endless retries")
	}
}

func TestRetryBackoffDelaysReissue(t *testing.T) {
	mem := memory.New()
	b := New(Config{Timing: memory.DefaultTiming(), RetryBackoff: 8, DeadlockThreshold: 1 << 20}, mem)
	m0 := b.AddMaster("m0")
	m1 := b.AddMaster("m1")
	b.AddSnooper(m1, &fakeSnooper{reply: SnoopReply{Retry: true}})
	b.Submit(&Transaction{Master: m0, Kind: ReadLine, Addr: 0x40, Words: 8}, nil)
	for i := 0; i < 100; i++ {
		b.Tick(uint64(i))
	}
	aborts := b.Stats().Aborted
	// With an 8-cycle back-off plus 2 busy cycles per attempt, 100 cycles
	// admit at most ~12 attempts; without back-off there would be ~50.
	if aborts > 15 {
		t.Fatalf("%d aborts in 100 cycles; back-off not applied", aborts)
	}
	if aborts < 5 {
		t.Fatalf("only %d aborts; retry not happening", aborts)
	}
}

func TestSubmitFlushOrdersAfterRetriedHead(t *testing.T) {
	b, _ := newTestBus(t)
	m0 := b.AddMaster("m0")
	// Simulate a retried transaction at the head.
	retried := &Transaction{Master: m0, Kind: ReadLine, Addr: 0x40, Words: 8}
	retried.retries = 3
	b.Submit(retried, nil)
	ordinary := &Transaction{Master: m0, Kind: ReadLine, Addr: 0x80, Words: 8}
	b.Submit(ordinary, nil)
	flush := &Transaction{Master: m0, Kind: WriteLine, Addr: 0xc0, Data: make([]uint32, 8)}
	b.SubmitFlush(flush, nil)
	q := &b.masters[m0].queue
	if q.at(0).txn != retried || q.at(1).txn != flush || q.at(2).txn != ordinary {
		t.Fatalf("queue order %v,%v,%v; want retried, flush, ordinary", q.at(0).txn.Addr, q.at(1).txn.Addr, q.at(2).txn.Addr)
	}
}

func TestSubmitFlushJumpsCleanQueue(t *testing.T) {
	b, _ := newTestBus(t)
	m0 := b.AddMaster("m0")
	ordinary := &Transaction{Master: m0, Kind: ReadLine, Addr: 0x80, Words: 8}
	b.Submit(ordinary, nil)
	flush := &Transaction{Master: m0, Kind: WriteLine, Addr: 0xc0, Data: make([]uint32, 8)}
	b.SubmitFlush(flush, nil)
	q := &b.masters[m0].queue
	if q.at(0).txn != flush {
		t.Fatal("flush did not jump ahead of ordinary work")
	}
}

func TestUpgradeIsAddressOnly(t *testing.T) {
	b, _ := newTestBus(t)
	m := b.AddMaster("m")
	doneAt := -1
	b.Submit(&Transaction{Master: m, Kind: Upgrade, Addr: 0x40, Words: 8}, func(Result) {})
	for i := 0; i < 50; i++ {
		b.Tick(uint64(i))
		if b.Idle() {
			doneAt = i
			break
		}
	}
	if doneAt != 2 {
		t.Fatalf("upgrade finished after tick %d, want 2 (no data phase)", doneAt)
	}
}

func TestStatsCounters(t *testing.T) {
	b, _ := newTestBus(t)
	m := b.AddMaster("m")
	b.Submit(&Transaction{Master: m, Kind: ReadLine, Addr: 0x40, Words: 8}, nil)
	b.Submit(&Transaction{Master: m, Kind: WriteLine, Addr: 0x40, Data: make([]uint32, 8)}, nil)
	b.Submit(&Transaction{Master: m, Kind: Upgrade, Addr: 0x40, Words: 8}, nil)
	b.Submit(&Transaction{Master: m, Kind: ReadWord, Addr: 0x10}, nil)
	b.Submit(&Transaction{Master: m, Kind: WriteWord, Addr: 0x10, Val: 1}, nil)
	b.Submit(&Transaction{Master: m, Kind: RMWWord, Addr: 0x10, Val: 1}, nil)
	run(t, b, 500)
	s := b.Stats()
	if s.LineFills != 1 || s.WriteBacks != 1 || s.LineUpgrades != 1 || s.WordReads != 1 || s.WordWrites != 1 || s.RMWs != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.Completed != 6 {
		t.Fatalf("completed %d, want 6", s.Completed)
	}
}

func TestErrHardwareDeadlockIdentity(t *testing.T) {
	if !errors.Is(ErrHardwareDeadlock, ErrHardwareDeadlock) {
		t.Fatal("errors.Is broken")
	}
}

func TestKindHelpers(t *testing.T) {
	if WriteLine.Snooped() {
		t.Error("WriteLine snooped")
	}
	for _, k := range []Kind{ReadLine, ReadLineOwn, Upgrade, ReadWord, WriteWord, RMWWord} {
		if !k.Snooped() {
			t.Errorf("%v not snooped", k)
		}
	}
}

func TestPipelinedOverlapSavesCycles(t *testing.T) {
	run := func(pipelined bool) (uint64, Stats) {
		mem := memory.New()
		b := New(Config{Timing: memory.DefaultTiming(), Pipelined: pipelined}, mem)
		m0 := b.AddMaster("m0")
		m1 := b.AddMaster("m1")
		done := 0
		for i := 0; i < 10; i++ {
			// Different lines: eligible for overlap.
			b.Submit(&Transaction{Master: m0, Kind: ReadLine, Addr: uint32(0x1000 + i*64), Words: 8}, func(Result) { done++ })
			b.Submit(&Transaction{Master: m1, Kind: ReadLine, Addr: uint32(0x8000 + i*64), Words: 8}, func(Result) { done++ })
		}
		var cycles uint64
		for cycles = 0; done < 20 && cycles < 10000; cycles++ {
			b.Tick(cycles)
		}
		return cycles, b.Stats()
	}
	plain, _ := run(false)
	piped, st := run(true)
	if piped >= plain {
		t.Fatalf("pipelined (%d cycles) not faster than plain (%d)", piped, plain)
	}
	if st.Overlapped == 0 {
		t.Fatal("no overlapped tenures recorded")
	}
}

func TestPipelinedSameLineNotOverlapped(t *testing.T) {
	mem := memory.New()
	b := New(Config{Timing: memory.DefaultTiming(), Pipelined: true}, mem)
	m0 := b.AddMaster("m0")
	m1 := b.AddMaster("m1")
	var order []int
	b.Submit(&Transaction{Master: m0, Kind: WriteLine, Addr: 0x40, Data: []uint32{1, 2, 3, 4, 5, 6, 7, 8}}, func(Result) { order = append(order, 0) })
	// Let the write enter its data phase before the read arrives.
	now := uint64(0)
	for ; now < 3; now++ {
		b.Tick(now)
	}
	var got []uint32
	b.Submit(&Transaction{Master: m1, Kind: ReadLine, Addr: 0x40, Words: 8}, func(r Result) {
		order = append(order, 1)
		got = append([]uint32(nil), r.Data...)
	})
	for ; now < 200 && !b.Idle(); now++ {
		b.Tick(now)
	}
	if len(order) != 2 || order[0] != 0 {
		t.Fatalf("order %v", order)
	}
	// The read's address phase must NOT have overlapped the write (same
	// granule): it sees the written data.
	if got[0] != 1 || got[7] != 8 {
		t.Fatalf("read overlapped the same-line write: %v", got)
	}
	if b.Stats().Overlapped != 0 {
		t.Fatal("same-line tenure overlapped")
	}
}

// TestPipelinedProbeNamesTenureOnBus: an overlapped address phase, whether
// it succeeds or is ARTRYed, must not change the identity of the tenure in
// its data phase.  Probe (the VCD) keeps naming the master on the bus.
func TestPipelinedProbeNamesTenureOnBus(t *testing.T) {
	for _, artry := range []bool{false, true} {
		mem := memory.New()
		b := New(Config{Timing: memory.DefaultTiming(), Pipelined: true}, mem)
		m0 := b.AddMaster("m0")
		m1 := b.AddMaster("m1")
		// Owned by m0, so it snoops (and, when artry, aborts) m1's tenures.
		b.AddSnooper(m0, &fakeSnooper{reply: SnoopReply{Retry: artry}})
		done := false
		b.Submit(&Transaction{Master: m0, Kind: ReadLine, Addr: 0x1000, Words: 8}, func(Result) { done = true })
		b.Tick(0) // grant m0
		b.Submit(&Transaction{Master: m1, Kind: WriteWord, Addr: 0x8000, Val: 1}, nil)
		for now := uint64(1); now < 100; now++ {
			b.Tick(now)
			if done {
				break
			}
			if p := b.Probe(); !p.Busy || p.Master != m0 || p.Kind != ReadLine || p.Addr != 0x1000 || p.Aborting {
				t.Fatalf("artry=%v cycle %d: probe %+v during m0's data phase", artry, now, p)
			}
		}
		if !done {
			t.Fatalf("artry=%v: m0's fill never completed", artry)
		}
		st := b.Stats()
		if artry && st.Aborted == 0 || !artry && st.Overlapped == 0 {
			t.Fatalf("artry=%v: no overlapped address phase happened (%+v)", artry, st)
		}
	}
}

func TestPipelinedKeepsPerMasterOrder(t *testing.T) {
	mem := memory.New()
	b := New(Config{Timing: memory.DefaultTiming(), Pipelined: true}, mem)
	m0 := b.AddMaster("m0")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		b.Submit(&Transaction{Master: m0, Kind: ReadLine, Addr: uint32(0x1000 + i*64), Words: 8}, func(Result) { order = append(order, i) })
	}
	run(t, b, 1000)
	for i, v := range order {
		if v != i {
			t.Fatalf("per-master order broken: %v", order)
		}
	}
}

func TestMasterLatencyCharged(t *testing.T) {
	timeIt := func(lat int) int {
		mem := memory.New()
		b := New(Config{Timing: memory.DefaultTiming()}, mem)
		m := b.AddMaster("m")
		b.SetMasterLatency(m, lat)
		done := -1
		b.Submit(&Transaction{Master: m, Kind: ReadLine, Addr: 0x40, Words: 8}, func(Result) {})
		for i := 0; i < 100; i++ {
			b.Tick(uint64(i))
			if b.Idle() {
				done = i
				break
			}
		}
		return done
	}
	base := timeIt(0)
	slow := timeIt(3)
	if slow != base+3 {
		t.Fatalf("latency not charged: %d vs %d+3", slow, base)
	}
}

// TestEventSyncDivisors: a bus bound to the event scheduler ends a run with
// the same bus cycle count and busy/idle split as a tick-mode bus, for
// power-of-two clock divisors (sync shifts) and others (sync divides).
func TestEventSyncDivisors(t *testing.T) {
	run := func(div uint64, event bool) (Stats, uint64) {
		e := sim.NewEngine()
		bs := New(Config{Timing: memory.DefaultTiming()}, memory.New())
		m := bs.AddMaster("m")
		txn := Transaction{Master: m, Kind: ReadLine, Addr: 0x400, Words: 8}
		inFlight := false
		done := func(Result) { inFlight = false }
		// The driver ticks every engine cycle; the bus skips its idle and
		// data-phase edges in between.
		e.Register("driver", 1, sim.TickFunc(func(now uint64) {
			if now%50 == 7 && !inFlight {
				inFlight = true
				bs.Submit(&txn, done)
			}
		}))
		h := e.Register("bus", div, bs)
		if event {
			e.UseEventScheduler()
			bs.BindScheduler(h)
		}
		if err := e.Run(400); !errors.Is(err, sim.ErrMaxCycles) {
			t.Fatalf("div %d: err = %v, want ErrMaxCycles", div, err)
		}
		return bs.Stats(), bs.Cycle()
	}
	for _, div := range []uint64{1, 2, 3, 4} {
		tickStats, tickCycle := run(div, false)
		evStats, evCycle := run(div, true)
		if evStats != tickStats || evCycle != tickCycle {
			t.Fatalf("div %d: event bus at cycle %d with %+v, tick bus at cycle %d with %+v",
				div, evCycle, evStats, tickCycle, tickStats)
		}
		if tickStats.Completed == 0 || tickStats.IdleCycles == 0 {
			t.Fatalf("div %d: run completed %d tenures over %d idle cycles; want both nonzero", div, tickStats.Completed, tickStats.IdleCycles)
		}
	}
}
