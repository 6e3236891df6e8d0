package cache

import (
	"testing"

	"hetcc/internal/bus"
	"hetcc/internal/coherence"
	"hetcc/internal/memory"
)

// rig is a two-controller test bench on one bus.
type rig struct {
	t   *testing.T
	bus *bus.Bus
	mem *memory.Memory
	ctl []*Controller
	now uint64
}

func newRig(t *testing.T, kinds ...coherence.Kind) *rig {
	t.Helper()
	mem := memory.New()
	b := bus.New(bus.Config{Timing: memory.DefaultTiming()}, mem)
	r := &rig{t: t, bus: b, mem: mem}
	for i, k := range kinds {
		arr, err := New(Config{SizeBytes: 1024, Ways: 2, LineBytes: 32}, coherence.New(k))
		if err != nil {
			t.Fatal(err)
		}
		r.ctl = append(r.ctl, NewController(names[i], arr, b, nil, true))
	}
	return r
}

var names = []string{"c0", "c1", "c2", "c3"}

// spin ticks the bus until pred is true or the budget runs out.
func (r *rig) spin(pred func() bool) {
	r.t.Helper()
	for i := 0; i < 10000; i++ {
		if pred() {
			return
		}
		r.bus.Tick(r.now)
		r.now++
	}
	r.t.Fatal("condition never became true")
}

// access drives one blocking CPU access to completion and returns the read
// value.
func (r *rig) access(ctl int, write bool, addr, val uint32) uint32 {
	r.t.Helper()
	var out uint32
	done := false
	for i := 0; i < 10000; i++ {
		status, v := r.ctl[ctl].Access(write, addr, val, func(rv uint32) { out = rv; done = true })
		switch status {
		case Done:
			return v
		case Pending:
			r.spin(func() bool { return done })
			return out
		case Busy:
			r.bus.Tick(r.now)
			r.now++
		}
	}
	r.t.Fatal("access never accepted")
	return 0
}

func (r *rig) clean(ctl int, addr uint32) {
	r.t.Helper()
	done := false
	for i := 0; i < 10000; i++ {
		switch r.ctl[ctl].Clean(addr, func() { done = true }) {
		case Done:
			return
		case Pending:
			r.spin(func() bool { return done })
			return
		case Busy:
			r.bus.Tick(r.now)
			r.now++
		}
	}
	r.t.Fatal("clean never accepted")
}

func (r *rig) state(ctl int, addr uint32) coherence.State {
	return r.ctl[ctl].Cache().StateOf(addr)
}

func TestReadMissFillsExclusiveMESI(t *testing.T) {
	r := newRig(t, coherence.MESI, coherence.MESI)
	r.mem.Poke(0x1008, 77)
	if got := r.access(0, false, 0x1008, 0); got != 77 {
		t.Fatalf("read %d, want 77", got)
	}
	if st := r.state(0, 0x1000); st != coherence.Exclusive {
		t.Fatalf("fill state %v, want E (no sharer)", st)
	}
	if s := r.ctl[0].Cache().Stats(); s.ReadMisses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestReadSharingMESI(t *testing.T) {
	r := newRig(t, coherence.MESI, coherence.MESI)
	r.access(0, false, 0x1000, 0)
	r.access(1, false, 0x1000, 0)
	if r.state(0, 0x1000) != coherence.Shared || r.state(1, 0x1000) != coherence.Shared {
		t.Fatalf("states %v/%v, want S/S", r.state(0, 0x1000), r.state(1, 0x1000))
	}
}

func TestWriteHitSilentUpgradeEToM(t *testing.T) {
	r := newRig(t, coherence.MESI, coherence.MESI)
	r.access(0, false, 0x1000, 0)
	busBefore := r.bus.Stats().Completed
	r.access(0, true, 0x1000, 5)
	if r.state(0, 0x1000) != coherence.Modified {
		t.Fatal("E->M failed")
	}
	if r.bus.Stats().Completed != busBefore {
		t.Fatal("silent E->M used the bus")
	}
	if got := r.access(0, false, 0x1000, 0); got != 5 {
		t.Fatalf("read back %d", got)
	}
}

func TestWriteHitOnSharedUpgradesAndInvalidatesPeer(t *testing.T) {
	r := newRig(t, coherence.MESI, coherence.MESI)
	r.access(0, false, 0x1000, 0)
	r.access(1, false, 0x1000, 0) // both S
	r.access(0, true, 0x1000, 9)
	if r.state(0, 0x1000) != coherence.Modified {
		t.Fatalf("upgrader state %v", r.state(0, 0x1000))
	}
	if r.state(1, 0x1000) != coherence.Invalid {
		t.Fatalf("peer state %v, want I", r.state(1, 0x1000))
	}
	if r.bus.Stats().LineUpgrades != 1 {
		t.Fatalf("upgrades %d, want 1", r.bus.Stats().LineUpgrades)
	}
}

func TestSnoopFlushDrainsDirtyLine(t *testing.T) {
	r := newRig(t, coherence.MESI, coherence.MESI)
	r.access(0, true, 0x1000, 42) // c0 M
	got := r.access(1, false, 0x1000, 0)
	if got != 42 {
		t.Fatalf("peer read %d, want 42 (drain-then-retry)", got)
	}
	if r.mem.Peek(0x1000) != 42 {
		t.Fatal("memory not updated by flush")
	}
	if r.state(0, 0x1000) != coherence.Shared || r.state(1, 0x1000) != coherence.Shared {
		t.Fatalf("states %v/%v, want S/S", r.state(0, 0x1000), r.state(1, 0x1000))
	}
	if r.bus.Stats().Aborted == 0 {
		t.Fatal("no ARTRY recorded for the flush")
	}
}

func TestWriteMissInvalidatesOwner(t *testing.T) {
	r := newRig(t, coherence.MESI, coherence.MESI)
	r.access(0, true, 0x1000, 1) // c0 M
	r.access(1, true, 0x1000, 2) // c1 takes ownership
	if r.state(0, 0x1000) != coherence.Invalid || r.state(1, 0x1000) != coherence.Modified {
		t.Fatalf("states %v/%v, want I/M", r.state(0, 0x1000), r.state(1, 0x1000))
	}
	if got := r.access(1, false, 0x1000, 0); got != 2 {
		t.Fatalf("owner reads %d, want 2", got)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	r := newRig(t, coherence.MESI)
	// 2-way, 16 sets: set stride = 512 bytes.  Three lines in set 0.
	r.access(0, true, 0x0, 10)
	r.access(0, true, 0x200, 20)
	r.access(0, true, 0x400, 30) // evicts 0x0 (LRU)
	if r.state(0, 0x0) != coherence.Invalid {
		t.Fatal("victim still resident")
	}
	r.spin(func() bool { return r.bus.Idle() })
	if r.mem.Peek(0x0) != 10 {
		t.Fatalf("evicted dirty data lost: mem=%d", r.mem.Peek(0x0))
	}
	if s := r.ctl[0].Cache().Stats(); s.Evictions != 1 || s.EvictionWBs != 1 {
		t.Fatalf("stats %+v", s)
	}
	// Victim's data must still be readable afterwards.
	if got := r.access(0, false, 0x0, 0); got != 10 {
		t.Fatalf("refetched %d, want 10", got)
	}
}

func TestPendingWritebackSnoopRetries(t *testing.T) {
	// A snoop on a line whose write-back is queued but not complete must
	// ARTRY, or the peer would read stale memory.
	r := newRig(t, coherence.MESI, coherence.MESI)
	r.access(0, true, 0x0, 10)
	r.access(0, true, 0x200, 20)
	// Kick off the eviction of 0x0 but do NOT drain the bus: issue the
	// next access and immediately have the peer read the victim.
	status, _ := r.ctl[0].Access(true, 0x400, 30, func(uint32) {})
	if status != Pending {
		t.Fatalf("fill status %v", status)
	}
	got := r.access(1, false, 0x0, 0)
	if got != 10 {
		t.Fatalf("peer read %d during in-flight write-back, want 10", got)
	}
}

func TestCleanDirtyLineWritesBackAndInvalidates(t *testing.T) {
	r := newRig(t, coherence.MESI, coherence.MESI)
	r.access(0, true, 0x1000, 5)
	r.clean(0, 0x1000)
	r.spin(func() bool { return r.bus.Idle() })
	if r.state(0, 0x1000) != coherence.Invalid {
		t.Fatal("clean did not invalidate")
	}
	if r.mem.Peek(0x1000) != 5 {
		t.Fatal("clean did not write back")
	}
}

func TestCleanCleanLineIsLocal(t *testing.T) {
	r := newRig(t, coherence.MESI, coherence.MESI)
	r.access(0, false, 0x1000, 0)
	before := r.bus.Stats().Completed
	r.clean(0, 0x1000)
	if r.bus.Stats().Completed != before {
		t.Fatal("cleaning a clean line used the bus")
	}
	if r.state(0, 0x1000) != coherence.Invalid {
		t.Fatal("not invalidated")
	}
}

func TestCleanAbsentLineIsNoOp(t *testing.T) {
	r := newRig(t, coherence.MESI)
	if st := r.ctl[0].Clean(0x5000, nil); st != Done {
		t.Fatalf("clean of absent line returned %v", st)
	}
}

func TestInvalidateDiscards(t *testing.T) {
	r := newRig(t, coherence.MESI)
	r.access(0, false, 0x1000, 0)
	r.ctl[0].Invalidate(0x1000)
	if r.state(0, 0x1000) != coherence.Invalid {
		t.Fatal("invalidate failed")
	}
}

func TestUncachedRoundTrip(t *testing.T) {
	r := newRig(t, coherence.MESI)
	done := false
	r.ctl[0].Uncached(bus.WriteWord, 0x9000, 33, func(uint32) { done = true })
	r.spin(func() bool { return done })
	var got uint32
	done = false
	r.ctl[0].Uncached(bus.ReadWord, 0x9000, 0, func(v uint32) { got = v; done = true })
	r.spin(func() bool { return done })
	if got != 33 {
		t.Fatalf("uncached read %d, want 33", got)
	}
	if _, ok := r.ctl[0].Cache().PeekWord(0x9000); ok {
		t.Fatal("uncached access allocated a line")
	}
}

func TestControllerBusyWhileOutstanding(t *testing.T) {
	r := newRig(t, coherence.MESI)
	status, _ := r.ctl[0].Access(false, 0x1000, 0, func(uint32) {})
	if status != Pending {
		t.Fatalf("first access %v", status)
	}
	status, _ = r.ctl[0].Access(false, 0x2000, 0, func(uint32) {})
	if status != Busy {
		t.Fatalf("second access %v, want Busy", status)
	}
	if st := r.ctl[0].Uncached(bus.ReadWord, 0x9000, 0, func(uint32) {}); st != Busy {
		t.Fatalf("uncached while busy %v, want Busy", st)
	}
}

// TestUpgradeRace: the line being upgraded is invalidated by a peer's
// write before the upgrade wins the bus; the controller must fall back to a
// full read-for-ownership and still store correctly.
func TestUpgradeRace(t *testing.T) {
	r := newRig(t, coherence.MESI, coherence.MESI)
	r.access(0, false, 0x1000, 0)
	r.access(1, false, 0x1000, 0) // both S
	// Queue c1's upgrade first, then c0's upgrade: c1 wins, invalidating
	// c0's line mid-upgrade.
	done0, done1 := false, false
	st1, _ := r.ctl[1].Access(true, 0x1000, 111, func(uint32) { done1 = true })
	st0, _ := r.ctl[0].Access(true, 0x1004, 222, func(uint32) { done0 = true })
	if st0 != Pending || st1 != Pending {
		t.Fatalf("statuses %v/%v", st0, st1)
	}
	r.spin(func() bool { return done0 && done1 })
	// Whichever upgrade lost the race must have fallen back to a full
	// read-for-ownership: exactly one owner remains and BOTH writes
	// survive in the line.
	s0, s1 := r.state(0, 0x1000), r.state(1, 0x1000)
	var winner int
	switch {
	case s0 == coherence.Modified && s1 == coherence.Invalid:
		winner = 0
	case s1 == coherence.Modified && s0 == coherence.Invalid:
		winner = 1
	default:
		t.Fatalf("states %v/%v, want exactly one M", s0, s1)
	}
	if got := r.access(winner, false, 0x1000, 0); got != 111 {
		t.Fatalf("word0 = %d, want 111 (c1's write preserved)", got)
	}
	if got := r.access(winner, false, 0x1004, 0); got != 222 {
		t.Fatalf("word1 = %d, want 222 (c0's write preserved)", got)
	}
}

// TestMOESICacheToCacheSupply: homogeneous MOESI serves dirty lines
// cache-to-cache and enters O without touching memory.
func TestMOESICacheToCacheSupply(t *testing.T) {
	r := newRig(t, coherence.MOESI, coherence.MOESI)
	r.access(0, true, 0x1000, 7)
	got := r.access(1, false, 0x1000, 0)
	if got != 7 {
		t.Fatalf("c2c read %d, want 7", got)
	}
	if r.state(0, 0x1000) != coherence.Owned {
		t.Fatalf("supplier state %v, want O", r.state(0, 0x1000))
	}
	if r.state(1, 0x1000) != coherence.Shared {
		t.Fatalf("requester state %v, want S", r.state(1, 0x1000))
	}
	if r.mem.Peek(0x1000) != 0 {
		t.Fatal("memory written despite cache-to-cache transfer")
	}
	if r.bus.Stats().Supplied != 1 {
		t.Fatal("supply not counted")
	}
}

// TestMOESIOwnedEvictionWritesBack: the O state carries the dirty data, so
// evicting it must write back.
func TestMOESIOwnedEvictionWritesBack(t *testing.T) {
	r := newRig(t, coherence.MOESI, coherence.MOESI)
	r.access(0, true, 0x0, 99)
	r.access(1, false, 0x0, 0) // c0 -> O
	// Evict c0's O line by filling its set (2-way; stride 0x200).
	r.access(0, false, 0x200, 0)
	r.access(0, false, 0x400, 0)
	r.spin(func() bool { return r.bus.Idle() })
	if r.mem.Peek(0x0) != 99 {
		t.Fatalf("O eviction lost dirty data: mem=%d", r.mem.Peek(0x0))
	}
}

// suppressPolicy denies cache-to-cache supply (a heterogeneous mix).
type suppressPolicy struct{ Passthrough }

func (suppressPolicy) AllowSupply() bool { return false }

// TestSupplySuppressionFallsBackToFlush: with c2c suppressed the MOESI
// owner drains and the requester reads memory.
func TestSupplySuppressionFallsBackToFlush(t *testing.T) {
	r := newRig(t, coherence.MOESI, coherence.MOESI)
	r.ctl[0].SetPolicy(suppressPolicy{})
	r.ctl[1].SetPolicy(suppressPolicy{})
	r.access(0, true, 0x1000, 7)
	got := r.access(1, false, 0x1000, 0)
	if got != 7 {
		t.Fatalf("read %d, want 7", got)
	}
	if r.mem.Peek(0x1000) != 7 {
		t.Fatal("suppressed supply did not flush to memory")
	}
	if r.state(0, 0x1000) == coherence.Owned {
		t.Fatal("owner entered O despite suppression")
	}
	if r.bus.Stats().Supplied != 0 {
		t.Fatal("supply happened despite suppression")
	}
}

// TestMEISnoopDrainsOnRead: MEI (PowerPC755) gives up dirty lines on any
// snooped read.
func TestMEISnoopDrainsOnRead(t *testing.T) {
	r := newRig(t, coherence.MEI, coherence.MEI)
	r.access(0, true, 0x1000, 3)
	got := r.access(1, false, 0x1000, 0)
	if got != 3 {
		t.Fatalf("read %d, want 3", got)
	}
	if r.state(0, 0x1000) != coherence.Invalid {
		t.Fatalf("MEI owner state %v after snooped read, want I", r.state(0, 0x1000))
	}
	if r.state(1, 0x1000) != coherence.Exclusive {
		t.Fatalf("requester state %v, want E", r.state(1, 0x1000))
	}
}
