package platform

import (
	"errors"
	"fmt"
	"sort"

	"hetcc/internal/audit"
	"hetcc/internal/bus"
	"hetcc/internal/cache"
	"hetcc/internal/cpu"
	"hetcc/internal/memory"
	"hetcc/internal/metrics"
	"hetcc/internal/profile"
	"hetcc/internal/sharing"
	"hetcc/internal/sim"
	"hetcc/internal/snooplogic"
	"hetcc/internal/span"
)

// Violation records a golden-model coherence defect: a load from the shared
// region returned something other than the globally last-stored value.
type Violation struct {
	Core  int
	Addr  uint32
	Got   uint32
	Want  uint32
	Cycle uint64
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: core %d read 0x%08x = %d, want %d (stale)", v.Cycle, v.Core, v.Addr, v.Got, v.Want)
}

// checker is the golden model: because every shared-region access in the
// workloads happens inside a critical section, the globally last write to
// each word is well-defined and every read must return it.  It serves both
// Verify and the auditor's stale-read check.  It also checks the lock
// discipline itself: a shared-region access by a core holding no lock is a
// data race under the paper's programming model.
type checker struct {
	// expected is the last value stored to each shared word.  A store of 0
	// still marks the word written, so GoldenExpected lists it.
	expected   memory.Words
	violations []Violation
	races      []Race
	limit      int
	lockDepth  func(core int) int
	// auditor, when non-nil, is told of every stale read.
	auditor *audit.Auditor
}

// Race records a shared-region access performed outside any critical
// section.
type Race struct {
	Core  int
	Addr  uint32
	Write bool
	Cycle uint64
}

// String renders the race.
func (r Race) String() string {
	op := "read"
	if r.Write {
		op = "write"
	}
	return fmt.Sprintf("cycle %d: core %d %s of shared 0x%08x outside any critical section", r.Cycle, r.Core, op, r.Addr)
}

func (k *checker) noteRace(core int, addr uint32, write bool, now uint64) {
	if k.lockDepth != nil && k.lockDepth(core) == 0 && len(k.races) < k.limit {
		k.races = append(k.races, Race{Core: core, Addr: addr, Write: write, Cycle: now})
	}
}

func (k *checker) onStore(core int, addr, val uint32, now uint64) {
	if InShared(addr) {
		k.noteRace(core, addr, true, now)
		k.expected.Store(addr, val)
	}
}

func (k *checker) onLoad(core int, addr, val uint32, now uint64) {
	if !InShared(addr) {
		return
	}
	k.noteRace(core, addr, false, now)
	if want := k.expected.Load(addr); want != val {
		if len(k.violations) < k.limit {
			k.violations = append(k.violations, Violation{Core: core, Addr: addr, Got: val, Want: want, Cycle: now})
		}
		if k.auditor != nil {
			k.auditor.StaleRead(core, addr, val, want, now)
		}
	}
}

// Result summarises one simulation run.
type Result struct {
	// Cycles is the engine cycle count at termination (100 MHz cycles in
	// the default clocking).
	Cycles uint64
	// Err is nil on normal completion; bus.ErrHardwareDeadlock when the
	// livelock detector fired; sim.ErrMaxCycles when the budget ran out.
	Err error
	// StopReason is the engine's recorded reason.
	StopReason string

	Bus         bus.Stats
	CPU         []cpu.Stats
	Cache       []cache.Stats
	Snoop       []snooplogic.Stats
	WrapperConv []uint64
	Violations  []Violation
	// Races lists shared accesses performed outside critical sections
	// (reported only when RaceCheck was enabled).
	Races []Race

	// Metrics is the final registry snapshot (nil unless Config.Metrics).
	Metrics *metrics.Snapshot
	// Tenures lists the bus tenure spans observed during the run (captured
	// only when Config.Metrics is on; bounded, see maxTenures).  The
	// Chrome-trace exporter turns them into duration events.
	Tenures []bus.Tenure
	// Audit is the invariant auditor's summary: violations, events by kind,
	// observed reachable states per core, per-line transition counts (nil
	// unless Config.Audit).
	Audit *audit.Summary
	// Profile is the stall-cause ledger summary (nil unless Config.Profile).
	// Per core, the sum of its causes equals CPU[i].StallCycles exactly.
	Profile *profile.Summary
	// StallSpans lists the contiguous same-cause stall runs per core
	// (bounded, see profile.DefaultMaxSpans; captured only with
	// Config.Profile).  The Chrome-trace exporter renders them as per-core
	// lanes.
	StallSpans []profile.Span
	// CriticalPath is the causal-span critical-path attribution (nil unless
	// Config.Spans): the last-retiring core's timeline charged to
	// (component, cause) pairs, summing to Cycles exactly.  The transaction
	// records and causal edges behind it are on Platform.Spans().
	CriticalPath *span.CriticalPath
	// Cohorts is the transaction-cohort partition of the critical core's
	// timeline (nil unless Config.Spans): execute + unlinked + per-(master,
	// op, line) critical cycles sum to Cycles exactly, the alignment unit of
	// differential run analysis (package delta).
	Cohorts *span.CohortSummary
	// Sharing is the sharing-pattern summary (nil unless Config.Sharing):
	// per-line classifications, the master communication matrix and the
	// windowed address heatmap.  Enabling it never changes the simulated
	// timeline — the collector only observes the event stream.
	Sharing *sharing.Summary
}

// Deadlocked reports whether the run ended in the paper's hardware
// deadlock.
func (r Result) Deadlocked() bool { return errors.Is(r.Err, bus.ErrHardwareDeadlock) }

// Coherent reports whether the golden-model checker saw no stale reads.
func (r Result) Coherent() bool { return len(r.Violations) == 0 }

// Run simulates until all programs retire, a deadlock is detected, or
// maxCycles engine cycles elapse.
func (p *Platform) Run(maxCycles uint64) Result {
	err := p.Engine.Run(maxCycles)
	res := Result{
		Cycles:     p.Engine.Now(),
		Err:        err,
		StopReason: p.Engine.StopReason(),
		Bus:        p.Bus.Stats(),
	}
	for i, c := range p.CPUs {
		res.CPU = append(res.CPU, c.Stats())
		res.Cache = append(res.Cache, p.Controllers[i].Cache().Stats())
		if sl := p.SnoopLogics[i]; sl != nil {
			res.Snoop = append(res.Snoop, sl.Stats())
		} else {
			res.Snoop = append(res.Snoop, snooplogic.Stats{})
		}
		if w := p.Wrappers[i]; w != nil {
			res.WrapperConv = append(res.WrapperConv, w.Conversions)
		} else {
			res.WrapperConv = append(res.WrapperConv, 0)
		}
	}
	if p.Config.Verify {
		res.Violations = p.checker.violations
		res.Races = p.checker.races
	}
	if err != nil && errors.Is(err, sim.ErrMaxCycles) && p.Bus.Deadlocked() {
		res.Err = bus.ErrHardwareDeadlock
	}
	if p.sampler != nil {
		p.sampler.Flush(p.Engine.Now()) // final partial window
	}
	if p.Metrics != nil && p.Engine.EventScheduler() {
		// Scheduler wake telemetry: how hard the event scheduler worked and
		// how much idle time it skipped.  Recorded before the snapshot; zero
		// under the tick scheduler, so the sched.* family only appears in
		// event-mode snapshots.
		st := p.Engine.SchedStats()
		p.Metrics.Counter("sched.wakes").Add(st.Wakes)
		p.Metrics.Counter("sched.passes").Add(st.Passes)
		p.Metrics.Gauge("sched.heap.maxdepth").Set(float64(st.MaxHeapDepth))
		h := p.Metrics.Histogram("sched.skip.cycles")
		for i, n := range st.SkipBuckets {
			// Replay each log2 bucket at its lower bound (the engine tallies
			// distances itself so the hot loop stays metrics-free).
			var v uint64
			if i > 0 {
				v = 1 << uint(i-1)
			}
			for ; n > 0; n-- {
				h.Observe(v)
			}
		}
	}
	if p.Metrics != nil {
		res.Metrics = p.Metrics.Snapshot()
		res.Tenures = p.tenures
	}
	if p.auditor != nil {
		s := p.auditor.Summary()
		s.Events = p.events.Counts()
		res.Audit = &s
	}
	if p.profiler != nil {
		p.profiler.Finish()
		s := p.profiler.Summary()
		res.Profile = &s
		res.StallSpans = p.profiler.Spans()
	}
	if p.spans != nil {
		p.spans.Finish(res.StallSpans, res.Cycles)
		cores := make([]span.CoreInfo, len(p.CPUs))
		for i := range p.CPUs {
			cores[i] = span.CoreInfo{
				Name:      p.Config.Processors[i].Model,
				ClockDiv:  p.Config.Processors[i].ClockDiv,
				Halted:    res.CPU[i].Halted,
				HaltCycle: res.CPU[i].HaltCycle,
			}
		}
		res.CriticalPath = span.Compute(p.spans, res.Cycles, cores, res.Profile,
			p.MasterName, func(k uint8) string { return bus.Kind(k).String() }, 10)
		if res.CriticalPath != nil {
			res.Cohorts = span.Cohorts(p.spans, res.CriticalPath.Core, res.Cycles,
				p.MasterName, func(k uint8) string { return bus.Kind(k).String() })
		}
	}
	if p.sharing != nil {
		p.sharing.Finish()
		res.Sharing = p.sharing.Summary()
	}
	if p.vcd != nil {
		p.vcd.err = p.vcd.w.Close(p.Engine.Now())
	}
	return res
}

// VCDErr returns the first write or flush error of the Config.VCD dump,
// which Run finishes (nil when the dump is off or was written whole).
func (p *Platform) VCDErr() error {
	if p.vcd == nil {
		return nil
	}
	return p.vcd.err
}

// GoldenExpected returns a copy of the golden model's expected value per
// shared word (nil when Verify was off).  Tests use it to cross-check the
// final system state.
func (p *Platform) GoldenExpected() map[uint32]uint32 {
	if !p.Config.Verify {
		return nil
	}
	out := make(map[uint32]uint32, p.checker.expected.Len())
	p.checker.expected.Range(func(addr, v uint32) { out[addr] = v })
	return out
}

// SharedLinesResident returns, per core, the shared-region lines currently
// resident in its data cache (test helper for the TAG CAM mirror and
// single-owner properties).
func (p *Platform) SharedLinesResident(core int) []uint32 {
	var out []uint32
	for _, base := range p.Controllers[core].Cache().ResidentLines() {
		if InShared(base) {
			out = append(out, base)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
