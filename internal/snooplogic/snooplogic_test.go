package snooplogic

import (
	"testing"

	"hetcc/internal/bus"
	"hetcc/internal/memory"
)

type fakeCPU struct {
	fiqs []uint32
}

func (f *fakeCPU) RaiseFIQ(base uint32) { f.fiqs = append(f.fiqs, base) }

type bench struct {
	bus   *bus.Bus
	sl    *SnoopLogic
	cpu   *fakeCPU
	owner int
	other int
	now   uint64
}

func newBench(t *testing.T) *bench {
	t.Helper()
	mem := memory.New()
	b := bus.New(bus.Config{Timing: memory.DefaultTiming()}, mem)
	owner := b.AddMaster("arm")
	other := b.AddMaster("ppc")
	cpu := &fakeCPU{}
	sl := New(b, owner, 32, cpu)
	return &bench{bus: b, sl: sl, cpu: cpu, owner: owner, other: other}
}

func (bn *bench) drain(t *testing.T) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if bn.bus.Idle() {
			return
		}
		bn.bus.Tick(bn.now)
		bn.now++
	}
	t.Fatal("bus never idled")
}

// fill makes the shadowed processor cache a line (observed fill).
func (bn *bench) fill(t *testing.T, addr uint32) {
	t.Helper()
	bn.bus.Submit(&bus.Transaction{Master: bn.owner, Kind: bus.ReadLine, Addr: addr, Words: 8}, nil)
	bn.drain(t)
}

func TestCAMTracksFills(t *testing.T) {
	bn := newBench(t)
	bn.fill(t, 0x1000)
	bn.fill(t, 0x1020)
	if !bn.sl.Holds(0x1008) || !bn.sl.Holds(0x1020) {
		t.Fatalf("CAM %v missing fills", bn.sl.CAMLines())
	}
	if s := bn.sl.Stats(); s.Inserts != 2 {
		t.Fatalf("inserts %d", s.Inserts)
	}
}

func TestCAMDropsOnWriteBack(t *testing.T) {
	bn := newBench(t)
	bn.fill(t, 0x1000)
	bn.bus.Submit(&bus.Transaction{Master: bn.owner, Kind: bus.WriteLine, Addr: 0x1000, Data: make([]uint32, 8)}, nil)
	bn.drain(t)
	if bn.sl.Holds(0x1000) {
		t.Fatal("CAM kept a written-back line")
	}
}

func TestCAMIgnoresOtherMasters(t *testing.T) {
	bn := newBench(t)
	bn.bus.Submit(&bus.Transaction{Master: bn.other, Kind: bus.ReadLine, Addr: 0x2000, Words: 8}, nil)
	bn.drain(t)
	if bn.sl.Holds(0x2000) {
		t.Fatal("CAM tracked a foreign master's fill")
	}
}

func TestSnoopHitRaisesFIQAndRetries(t *testing.T) {
	bn := newBench(t)
	bn.fill(t, 0x1000)
	done := false
	bn.bus.Submit(&bus.Transaction{Master: bn.other, Kind: bus.ReadLine, Addr: 0x1000, Words: 8}, func(bus.Result) { done = true })
	for i := 0; i < 50; i++ {
		bn.bus.Tick(bn.now)
		bn.now++
	}
	if done {
		t.Fatal("transaction completed while ISR pending")
	}
	if len(bn.cpu.fiqs) != 1 || bn.cpu.fiqs[0] != 0x1000 {
		t.Fatalf("fiqs %v, want one at 0x1000", bn.cpu.fiqs)
	}
	if s := bn.sl.Stats(); s.Hits != 1 || s.RetriesWhilePending == 0 {
		t.Fatalf("stats %+v", s)
	}
	// ISR completes: the retried read goes through.
	bn.sl.Complete(0x1000, true)
	bn.drain(t)
	if !done {
		t.Fatal("transaction never completed after ISR")
	}
	if bn.sl.Holds(0x1000) {
		t.Fatal("CAM entry survived the ISR")
	}
	if len(bn.sl.PendingLines()) != 0 {
		t.Fatal("pending line survived Complete")
	}
}

func TestOnlyOneFIQPerLine(t *testing.T) {
	bn := newBench(t)
	bn.fill(t, 0x1000)
	bn.bus.Submit(&bus.Transaction{Master: bn.other, Kind: bus.ReadLine, Addr: 0x1000, Words: 8}, nil)
	for i := 0; i < 200; i++ {
		bn.bus.Tick(bn.now)
		bn.now++
	}
	if len(bn.cpu.fiqs) != 1 {
		t.Fatalf("%d FIQs raised for one pending line", len(bn.cpu.fiqs))
	}
}

func TestSpuriousHitCounted(t *testing.T) {
	bn := newBench(t)
	bn.fill(t, 0x1000)
	bn.bus.Submit(&bus.Transaction{Master: bn.other, Kind: bus.ReadLine, Addr: 0x1000, Words: 8}, nil)
	for i := 0; i < 20; i++ {
		bn.bus.Tick(bn.now)
		bn.now++
	}
	// The ISR found nothing (line was silently dropped by the cache).
	bn.sl.Complete(0x1000, false)
	bn.drain(t)
	if s := bn.sl.Stats(); s.SpuriousHits != 1 {
		t.Fatalf("spurious hits %d, want 1", s.SpuriousHits)
	}
}

func TestNoteInvalidateTightensCAM(t *testing.T) {
	bn := newBench(t)
	bn.fill(t, 0x1000)
	bn.sl.NoteInvalidate(0x1008)
	if bn.sl.Holds(0x1000) {
		t.Fatal("NoteInvalidate did not clear the entry")
	}
	// The next foreign access must NOT hit.
	done := false
	bn.bus.Submit(&bus.Transaction{Master: bn.other, Kind: bus.ReadLine, Addr: 0x1000, Words: 8}, func(bus.Result) { done = true })
	bn.drain(t)
	if !done || len(bn.cpu.fiqs) != 0 {
		t.Fatal("spurious snoop hit after NoteInvalidate")
	}
}

func TestMissDoesNotRetry(t *testing.T) {
	bn := newBench(t)
	bn.fill(t, 0x1000)
	done := false
	bn.bus.Submit(&bus.Transaction{Master: bn.other, Kind: bus.ReadLine, Addr: 0x8000, Words: 8}, func(bus.Result) { done = true })
	bn.drain(t)
	if !done {
		t.Fatal("miss retried")
	}
	if len(bn.cpu.fiqs) != 0 {
		t.Fatal("miss raised FIQ")
	}
}

func TestUncachedWordOpsSnoopedToo(t *testing.T) {
	// A word access landing in a shadowed line must also be caught — the
	// paper's deadlock scenario depends on lock-word accesses snooping.
	bn := newBench(t)
	bn.fill(t, 0x1000)
	done := false
	bn.bus.Submit(&bus.Transaction{Master: bn.other, Kind: bus.WriteWord, Addr: 0x1004, Val: 9}, func(bus.Result) { done = true })
	for i := 0; i < 50; i++ {
		bn.bus.Tick(bn.now)
		bn.now++
	}
	if done {
		t.Fatal("word write into shadowed line not retried")
	}
	bn.sl.Complete(0x1000, true)
	bn.drain(t)
	if !done {
		t.Fatal("word write never completed")
	}
}

// TestCAMIsSupersetOfResidency is exercised end-to-end in the platform
// tests; here we check the local invariant that Complete is idempotent.
func TestCompleteIdempotent(t *testing.T) {
	bn := newBench(t)
	bn.fill(t, 0x1000)
	bn.sl.Complete(0x1000, true)
	bn.sl.Complete(0x1000, true) // second call must not panic or underflow
	if bn.sl.Holds(0x1000) {
		t.Fatal("entry survived")
	}
}

func TestCAMOverflowFlushesOldest(t *testing.T) {
	bn := newBench(t)
	bn.sl.SetCapacity(2)
	bn.fill(t, 0x1000)
	bn.fill(t, 0x1020)
	// Third fill overflows: the oldest entry (0x1000) is flushed via FIQ.
	bn.fill(t, 0x1040)
	if len(bn.cpu.fiqs) != 1 || bn.cpu.fiqs[0] != 0x1000 {
		t.Fatalf("overflow fiqs %v, want [0x1000]", bn.cpu.fiqs)
	}
	if s := bn.sl.Stats(); s.OverflowFlushes != 1 {
		t.Fatalf("overflow flushes %d", s.OverflowFlushes)
	}
	// The ISR completes: the entry clears and the CAM is back at capacity.
	bn.sl.Complete(0x1000, true)
	if bn.sl.Holds(0x1000) {
		t.Fatal("victim survived overflow")
	}
	if !bn.sl.Holds(0x1020) || !bn.sl.Holds(0x1040) {
		t.Fatal("live entries lost")
	}
}

func TestCAMOverflowSkipsPendingEntries(t *testing.T) {
	bn := newBench(t)
	bn.sl.SetCapacity(2)
	bn.fill(t, 0x1000)
	bn.fill(t, 0x1020)
	// 0x1000 is already pending an ISR (a foreign snoop hit it).
	bn.bus.Submit(&bus.Transaction{Master: bn.other, Kind: bus.ReadLine, Addr: 0x1000, Words: 8}, nil)
	for i := 0; i < 20; i++ {
		bn.bus.Tick(bn.now)
		bn.now++
	}
	// Overflow must pick 0x1020, not the pending 0x1000.  (The foreign
	// master keeps retrying, so wait on the fill completion rather than
	// bus idleness.)
	done := false
	bn.bus.Submit(&bus.Transaction{Master: bn.owner, Kind: bus.ReadLine, Addr: 0x1040, Words: 8}, func(bus.Result) { done = true })
	for i := 0; i < 10000 && !done; i++ {
		bn.bus.Tick(bn.now)
		bn.now++
	}
	if !done {
		t.Fatal("owner fill never completed")
	}
	if got := bn.cpu.fiqs[len(bn.cpu.fiqs)-1]; got != 0x1020 {
		t.Fatalf("overflow victim 0x%x, want 0x1020 (pending skipped)", got)
	}
}
