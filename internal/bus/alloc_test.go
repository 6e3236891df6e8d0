package bus

import (
	"testing"

	"hetcc/internal/memory"
)

// The alloc-regression suite pins the zero-garbage contract of the bus fast
// path: once the pending rings and the fill pool are warm, ticking the bus —
// including full snoop broadcasts and ARTRY storms — must not allocate.
// These run under `make allocs` and the CI allocs job; a regression here
// means a hot-loop change re-introduced per-transaction garbage.

// nopSnooper replies without recording anything (fakeSnooper appends every
// transaction it sees, which would itself allocate inside AllocsPerRun).
type nopSnooper struct{ reply SnoopReply }

func (s nopSnooper) SnoopBus(*Transaction) SnoopReply { return s.reply }

// TestAllocsBusTickSteadyState: a full line-fill round trip (submit, grant,
// address, data burst, completion) with a reused Transaction and a prebound
// callback is allocation-free once the fill pool is warm.
func TestAllocsBusTickSteadyState(t *testing.T) {
	mem := memory.New()
	bs := New(Config{Timing: memory.DefaultTiming()}, mem)
	m := bs.AddMaster("m")
	var cycle uint64
	txn := Transaction{Master: m, Kind: ReadLine, Addr: 0x400, Words: 8}
	done := func(Result) {}
	roundTrip := func() {
		bs.Submit(&txn, done)
		for !bs.Idle() {
			bs.Tick(cycle)
			cycle++
		}
	}
	roundTrip() // warm-up: grows the pending ring, the fill pool, memory pages
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Fatalf("steady-state bus round trip allocates %.1f/op, want 0", n)
	}
}

// TestAllocsARtryStorm: a snooper ARTRYing every tenure against a deep
// (8-transaction) queue must not allocate per retry.  The old slice-based
// queue re-prepended the aborted head with append([]pending{p}, queue...),
// copying the whole queue on every retry; the ring's pushFront is O(1) and
// garbage-free, which this pin proves.
func TestAllocsARtryStorm(t *testing.T) {
	mem := memory.New()
	bs := New(Config{
		Timing:            memory.DefaultTiming(),
		RetryBackoff:      1,
		DeadlockThreshold: 1 << 30, // the storm is the point; never trip livelock detection
	}, mem)
	m0 := bs.AddMaster("m0")
	m1 := bs.AddMaster("m1")
	bs.AddSnooper(m1, nopSnooper{reply: SnoopReply{Retry: true}})
	txns := make([]Transaction, 8)
	for i := range txns {
		txns[i] = Transaction{Master: m0, Kind: ReadLine, Addr: uint32(0x1000 + 64*i), Words: 8}
		bs.Submit(&txns[i], nil)
	}
	var cycle uint64
	storm := func() {
		for i := 0; i < 64; i++ {
			bs.Tick(cycle)
			cycle++
		}
	}
	storm() // warm-up: ring capacity, fanout rebuild
	before := bs.Stats().Aborted
	if n := testing.AllocsPerRun(100, storm); n != 0 {
		t.Fatalf("ARTRY storm allocates %.1f per 64 ticks, want 0 (head re-queue must not copy the queue)", n)
	}
	if after := bs.Stats().Aborted; after <= before {
		t.Fatalf("storm produced no ARTRY aborts (%d -> %d); test is not exercising the retry path", before, after)
	}
}

// TestAllocsSnoopBroadcast: fanning a snooped transaction out to several
// snoopers on other masters allocates nothing — the per-master snooper sets
// are precomputed flat slices, not rebuilt per address phase.
func TestAllocsSnoopBroadcast(t *testing.T) {
	mem := memory.New()
	bs := New(Config{Timing: memory.DefaultTiming()}, mem)
	m0 := bs.AddMaster("m0")
	for i := 0; i < 3; i++ {
		bs.AddSnooper(bs.AddMaster("snooped"), nopSnooper{})
	}
	var cycle uint64
	txn := Transaction{Master: m0, Kind: ReadLineOwn, Addr: 0x2000, Words: 8}
	roundTrip := func() {
		bs.Submit(&txn, nil)
		for !bs.Idle() {
			bs.Tick(cycle)
			cycle++
		}
	}
	roundTrip()
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Fatalf("snoop broadcast round trip allocates %.1f/op, want 0", n)
	}
}

// TestAllocsPipelinedOverlap: on a pipelined bus, a tenure whose address
// phase overlaps another's data phase is prepared in place, so an
// overlapped pair of line fills is as allocation-free as a lone one.
func TestAllocsPipelinedOverlap(t *testing.T) {
	mem := memory.New()
	bs := New(Config{Timing: memory.DefaultTiming(), Pipelined: true}, mem)
	m0 := bs.AddMaster("m0")
	m1 := bs.AddMaster("m1")
	var cycle uint64
	a := Transaction{Master: m0, Kind: ReadLine, Addr: 0x400, Words: 8}
	b := Transaction{Master: m1, Kind: ReadLine, Addr: 0x800, Words: 8}
	pair := func() {
		bs.Submit(&a, nil)
		bs.Submit(&b, nil)
		for !bs.Idle() {
			bs.Tick(cycle)
			cycle++
		}
	}
	pair() // warm-up: pending rings, fill pool, memory pages
	before := bs.Stats().Overlapped
	if n := testing.AllocsPerRun(100, pair); n != 0 {
		t.Fatalf("overlapped tenure pair allocates %.1f/op, want 0", n)
	}
	if after := bs.Stats().Overlapped; after <= before {
		t.Fatalf("no tenure overlapped (%d -> %d); test is not exercising the pipelined path", before, after)
	}
}
