package sim

import (
	"errors"
	"testing"
)

// periodicWaker ticks, then asks to be woken period edges (cycles, at divisor
// 1) later, stopping the engine after limit ticks.
type periodicWaker struct {
	e      *Engine
	period uint64
	ticks  int
	limit  int
}

func (p *periodicWaker) Tick(now uint64) {
	p.ticks++
	if p.ticks >= p.limit {
		p.e.Stop("done", nil)
	}
}

func (p *periodicWaker) NextWake(uint64) (uint64, bool) { return p.period, true }

// TestSchedStats pins the event scheduler's telemetry on a fully predictable
// workload: one component waking every 8 cycles makes every counter exact.
func TestSchedStats(t *testing.T) {
	e := NewEngine()
	w := &periodicWaker{e: e, period: 8, limit: 10}
	e.Register("w", 1, w)
	e.UseEventScheduler()
	if err := e.Run(1_000); err != nil {
		t.Fatal(err)
	}
	st := e.SchedStats()
	if st.Wakes != 10 || st.Passes != 10 {
		t.Fatalf("wakes %d, passes %d, want 10 each", st.Wakes, st.Passes)
	}
	// Nine 8-cycle jumps between the ten passes: bits.Len64(8) == 4.
	for i, n := range st.SkipBuckets {
		want := uint64(0)
		if i == 4 {
			want = 9
		}
		if n != want {
			t.Errorf("skip bucket %d = %d, want %d", i, n, want)
		}
	}
}

// TestSchedStatsTickMode: the counters stay zero under the tick scheduler.
func TestSchedStatsTickMode(t *testing.T) {
	e := NewEngine()
	e.Register("r", 1, &recorder{})
	err := e.Run(100)
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatal(err)
	}
	if st := e.SchedStats(); st != (SchedStats{}) {
		t.Fatalf("tick-mode scheduler stats non-zero: %+v", st)
	}
}
