// Package platform assembles complete heterogeneous SoC systems: processor
// cores with their caches and wrappers, the shared bus, memory, external
// snoop logic, and the lock subsystem — the paper's Figures 2 and 3 — and
// provides the three coherence strategies compared in the evaluation:
//
//   - CacheDisabled: shared data bypasses the caches entirely;
//   - Software: shared data is cached, and the program explicitly drains
//     every used line before leaving a critical section;
//   - Proposed: the paper's wrapper/snoop-logic hardware keeps caches
//     coherent with no software involvement.
package platform

import (
	"fmt"
	"io"

	"hetcc/internal/cache"
	"hetcc/internal/coherence"
	"hetcc/internal/memory"
)

// DefaultMetricsWindow is the time-series sampling window when
// Config.Metrics is on and Config.MetricsWindow is zero: 10,000 engine
// cycles = 100 us at the paper's 100 MHz engine clock.
const DefaultMetricsWindow uint64 = 10_000

// BusClockDiv is the ASB's engine divisor: the shared bus, the DMA engine
// and (at twice the divisor) the peripheral timer run at 50 MHz, one bus
// cycle every two engine cycles.
const BusClockDiv uint64 = 2

// Address map.  Regions are deliberately far apart so a line can never
// straddle two regions.
const (
	// PrivateBase + core*PrivateStride is a core's private cacheable area.
	PrivateBase   uint32 = 0x0001_0000
	PrivateStride uint32 = 0x0010_0000
	// SharedBase..SharedBase+SharedSize is the shared-data region; it is
	// cacheable except under the CacheDisabled strategy.
	SharedBase uint32 = 0x1000_0000
	SharedSize uint32 = 0x0100_0000
	// CachedLockAddr is a lock word *inside the cacheable shared region*,
	// used only by the hardware-deadlock demonstration.
	CachedLockAddr uint32 = SharedBase + 0x00F0_0000
	// LockBase is the always-uncached lock variable area (test-and-set
	// word, turn word, bakery arrays).
	LockBase uint32 = 0x2000_0000
	// LockRegisterAddr is the hardware lock register device.
	LockRegisterAddr uint32 = 0x3000_0000
	// PeriphBase..PeriphBase+PeriphSize is the low-speed peripheral bus
	// window behind the bridge (paper Section 3: the SoC bus architectures
	// "use two separate pipelined buses").
	PeriphBase uint32 = 0x4000_0000
	PeriphSize uint32 = 0x0000_1000
	// TimerBase and ConsoleBase are the standard peripherals.
	TimerBase   uint32 = PeriphBase + 0x000
	ConsoleBase uint32 = PeriphBase + 0x100
	// DMABase is the coherent DMA engine's register bank (high-speed bus).
	DMABase uint32 = 0x5000_0000
)

// InShared reports whether addr lies in the shared-data region.
func InShared(addr uint32) bool {
	return addr >= SharedBase && addr < SharedBase+SharedSize
}

// InPrivate reports whether addr lies in some core's private region.
func InPrivate(addr uint32) bool {
	return addr >= PrivateBase && addr < SharedBase
}

// Solution selects the coherence strategy (paper Section 4).
type Solution uint8

const (
	// CacheDisabled disables caching of shared data.
	CacheDisabled Solution = iota
	// Software caches shared data and drains used lines in software
	// before each critical-section exit.
	Software
	// Proposed is the paper's hardware scheme: wrappers for coherent
	// processors and TAG-CAM snoop logic + ISR for coherence-less ones.
	Proposed
)

// String names the solution.
func (s Solution) String() string {
	switch s {
	case CacheDisabled:
		return "cache-disabled"
	case Software:
		return "software"
	case Proposed:
		return "proposed"
	default:
		return fmt.Sprintf("Solution(%d)", uint8(s))
	}
}

// Solutions lists the three strategies in the paper's presentation order.
func Solutions() []Solution { return []Solution{CacheDisabled, Software, Proposed} }

// ProcessorSpec describes one processor of the platform.
type ProcessorSpec struct {
	// Model labels the core (reports only).
	Model string
	// Protocol is the native coherence protocol (None = no coherence
	// hardware, e.g. the ARM920T).
	Protocol coherence.Kind
	// ClockDiv is the engine divisor: 1 = 100 MHz, 2 = 50 MHz (Table 4).
	ClockDiv uint64
	// Cache is the data-cache geometry.
	Cache cache.Config
	// InterruptResponse/ISREntry/ISRExit model the software-snooping ISR
	// (meaningful only when Protocol == None).
	InterruptResponse int
	ISREntry          int
	ISRExit           int
	// CacheOpOverhead is the per-instruction overhead of explicit cache
	// maintenance (the software solution's drain loop).
	CacheOpOverhead int
	// AccessOverhead is the per-load/store instruction overhead (address
	// generation and loop control around each access).
	AccessOverhead int
	// WriteThroughShared marks the shared region write-through for this
	// processor (Intel486 style: WT lines follow the SI protocol and can
	// hold the S state; WB lines follow MEI).  Requires a protocol with an
	// S state.
	WriteThroughShared bool
	// WrapperLatency is the extra bus cycles the paper's wrapper adds to
	// each of this processor's transactions for native-bus-to-ASB
	// handshake conversion.  Charged only when the wrapper (or snoop
	// logic) is actually installed, i.e. under the Proposed strategy.
	WrapperLatency int
}

// PowerPC755 returns the paper's PowerPC755 model: MEI protocol, 100 MHz,
// 32 KB 8-way data cache with 32-byte lines.
func PowerPC755() ProcessorSpec {
	return ProcessorSpec{
		Model:           "PowerPC755",
		Protocol:        coherence.MEI,
		ClockDiv:        1,
		Cache:           cache.Config{SizeBytes: 32 * 1024, Ways: 8, LineBytes: 32},
		CacheOpOverhead: 12,
		AccessOverhead:  3,
	}
}

// Intel486 returns the paper's Write-back Enhanced Intel486 model: MESI
// protocol (the INV-pin behaviour is realised by the wrapper's read-to-
// write conversion), 50 MHz, 8 KB 4-way data cache.
func Intel486() ProcessorSpec {
	return ProcessorSpec{
		Model:           "Intel486",
		Protocol:        coherence.MESI,
		ClockDiv:        2,
		Cache:           cache.Config{SizeBytes: 8 * 1024, Ways: 4, LineBytes: 32},
		CacheOpOverhead: 12,
		AccessOverhead:  3,
	}
}

// ARM920T returns the paper's ARM920T model: no coherence hardware, 50 MHz,
// 16 KB 64-way data cache, software snooping through nFIQ (the fast
// interrupt's banked registers keep response and entry/exit overheads
// small).
func ARM920T() ProcessorSpec {
	return ProcessorSpec{
		Model:             "ARM920T",
		Protocol:          coherence.None,
		ClockDiv:          2,
		Cache:             cache.Config{SizeBytes: 16 * 1024, Ways: 64, LineBytes: 32},
		InterruptResponse: 4,
		ISREntry:          4,
		ISRExit:           4,
		CacheOpOverhead:   12,
		AccessOverhead:    3,
	}
}

// UltraSPARC returns a model of Sun's UltraSPARC as the paper describes it
// ("the MOESI protocol ... from SUN's UltraSPARC"): MOESI with
// cache-to-cache sharing, 100 MHz in this platform's clocking.
func UltraSPARC() ProcessorSpec {
	return ProcessorSpec{
		Model:           "UltraSPARC",
		Protocol:        coherence.MOESI,
		ClockDiv:        1,
		Cache:           cache.Config{SizeBytes: 16 * 1024, Ways: 2, LineBytes: 32},
		CacheOpOverhead: 12,
		AccessOverhead:  3,
	}
}

// AMD64 returns a model of the AMD64 core the paper cites ("a slightly
// different MOESI protocol ... from the most recent AMD64 architecture").
func AMD64() ProcessorSpec {
	return ProcessorSpec{
		Model:           "AMD64",
		Protocol:        coherence.MOESI,
		ClockDiv:        1,
		Cache:           cache.Config{SizeBytes: 64 * 1024, Ways: 2, LineBytes: 32},
		CacheOpOverhead: 12,
		AccessOverhead:  3,
	}
}

// Pentium returns the paper's "Intel's IA32 Pentium class" MESI model.
func Pentium() ProcessorSpec {
	return ProcessorSpec{
		Model:           "Pentium",
		Protocol:        coherence.MESI,
		ClockDiv:        1,
		Cache:           cache.Config{SizeBytes: 16 * 1024, Ways: 4, LineBytes: 32},
		CacheOpOverhead: 12,
		AccessOverhead:  3,
	}
}

// Generic returns a generic coherent processor model (for protocol-matrix
// experiments beyond the paper's three case-study cores).
func Generic(name string, k coherence.Kind, clockDiv uint64) ProcessorSpec {
	return ProcessorSpec{
		Model:           name,
		Protocol:        k,
		ClockDiv:        clockDiv,
		Cache:           cache.Config{SizeBytes: 16 * 1024, Ways: 4, LineBytes: 32},
		CacheOpOverhead: 12,
		AccessOverhead:  3,
	}
}

// Intel486WT returns the Intel486 model configured with write-through
// shared-data lines — the paper's SI-protocol variant ("only write-through
// lines can have the S state").
func Intel486WT() ProcessorSpec {
	s := Intel486()
	s.WriteThroughShared = true
	return s
}

// Preset platform pairs from the paper's Section 3.
//
// PPCARm is the PF2 case study (Figure 3) used for all performance figures;
// PPCI486 is the PF3 case study (Figure 2).
func PPCARm() []ProcessorSpec  { return []ProcessorSpec{PowerPC755(), ARM920T()} }
func PPCI486() []ProcessorSpec { return []ProcessorSpec{PowerPC755(), Intel486()} }
func ARMPair() []ProcessorSpec { return []ProcessorSpec{ARM920T(), armSecond()} }

func armSecond() ProcessorSpec {
	s := ARM920T()
	s.Model = "ARM920T-b"
	return s
}

// Config.Scheduler values.
const (
	// SchedulerEvent is the default engine scheduler: Run jumps from one
	// actionable cycle edge to the next, fast-forwarding idle components
	// (DESIGN.md §8).
	SchedulerEvent = "event"
	// SchedulerTick is the reference semantics: every component is ticked
	// at every one of its local clock edges.
	SchedulerTick = "tick"
)

// Config assembles a platform.
type Config struct {
	// Processors lists the cores in bus-priority order.
	Processors []ProcessorSpec
	// Solution selects the coherence strategy.
	Solution Solution
	// Timing is the memory controller timing; zero value selects the
	// paper's Table 4 default.
	Timing memory.Timing
	// Lock selects the lock mechanism and alternation mode.
	Lock LockChoice
	// DisableWrappers keeps hardware snooping active but removes the
	// paper's wrappers — the broken configuration of Tables 2 and 3.
	DisableWrappers bool
	// Verify enables the golden-model staleness checker on shared-region
	// accesses.
	Verify bool
	// RaceCheck (with Verify) additionally flags shared-region accesses
	// made while holding no lock — a violation of the paper's critical-
	// section programming model.
	RaceCheck bool
	// TraceCap enables the text trace of bus and snoop-logic activity,
	// bounded to this many lines.  The trace formats event records, so it
	// enables the coherence event stream.
	TraceCap int
	// Metrics enables the unified metrics layer: latency histograms on the
	// bus/cache/snoop/lock hot paths and windowed time series.  The bus,
	// snoop-logic and wrapper instruments are filled from event records, so
	// it enables the coherence event stream.  Off by default; the disabled
	// path costs nothing measurable (nil-safe instruments).
	Metrics bool
	// MetricsWindow is the time-series sampling window in engine cycles
	// (default 10,000 = 100 us at the paper's 100 MHz clocking).
	MetricsWindow uint64
	// Audit enables the typed coherence event stream and the online
	// invariant auditor (package audit): SWMR, single-dirty-owner,
	// data-value, and wrapper-reduction invariants are checked as the run
	// progresses, with per-line state timelines accumulated.  Result.Audit
	// carries the summary.  Off by default; the disabled path costs one nil
	// check per would-be event.
	Audit bool
	// EventLog, when non-nil, receives every coherence event as one JSON
	// object per line (JSONL), enabling the event stream even when Audit is
	// off.  Writes are unbuffered: callers hand in a buffered writer and
	// flush it after the run.
	EventLog io.Writer
	// Profile enables the per-core stall-cause cycle ledger (package
	// profile): every stalled CPU cycle is attributed to one exclusive
	// cause (arbitration wait, retry backoff, drain, refill, invalidation
	// re-miss, lock spin), with Result.Profile carrying the summary and
	// Result.StallSpans the per-core timeline.  Enables the coherence event
	// stream.  Off by default; the disabled path costs one nil check per
	// stalled cycle.
	Profile bool
	// Spans enables the causal transaction-span collector (package span):
	// every bus transaction's lifecycle is recorded with causal retry→drain
	// edges and stall-span links, and Result.CriticalPath carries the run's
	// critical-path attribution (report schema v4, "critical_path").
	// Enables the coherence event stream; pair with Profile for stall-span
	// links and the ledger cross-check.  Off by default; the disabled path
	// costs nothing (the collector is simply never subscribed).
	Spans bool
	// Sharing enables the sharing-pattern collector (package sharing):
	// every touched line is classified (private / read-only / read-write /
	// migratory / producer-consumer, plus false-sharing candidates), master
	// pair communication is accumulated into a matrix, and bus traffic is
	// bucketed into a bounded windowed address heatmap, with Result.Sharing
	// carrying the summary (report schema v6, "sharing").  Enables the
	// coherence event stream.  Off by default; enabling it never changes
	// the simulated timeline — the collector only observes.
	Sharing bool
	// DMA adds the coherent DMA engine (register bank at DMABase).
	DMA bool
	// PipelinedBus enables AHB-style address/data overlap on the shared
	// bus (the paper's ASB is not pipelined; ablation only).
	PipelinedBus bool
	// VCD, when non-nil, receives an IEEE-1364 value change dump of the
	// bus and core activity (one timestep per engine cycle = 10 ns at the
	// paper's clocking), viewable in GTKWave.
	VCD io.Writer
	// Scheduler selects the engine scheduling strategy: "event" (default)
	// jumps from one actionable cycle edge to the next, "tick" evaluates
	// every component on every one of its clock edges.  Both produce
	// byte-identical reports and digests (DESIGN.md §8); "tick" exists as
	// the reference semantics and equivalence baseline.
	Scheduler string
}

// LockChoice configures the lock subsystem.
type LockChoice struct {
	// Kind is the lock mechanism (lock.UncachedTAS etc. via package lock).
	Kind LockKind
	// Alternate enforces the paper's strict alternation.
	Alternate bool
	// SpinDelay is the poll back-off in CPU cycles.
	SpinDelay int
	// Count is the number of distinct lock ids (default 1).  The hardware
	// lock register holds a single bit, so it supports only Count == 1 —
	// "the system can have only one lock", as the paper notes.
	Count int
}

// LockKind re-exports the lock mechanism selector so facade callers don't
// need the internal lock package.
type LockKind uint8

const (
	LockUncachedTAS LockKind = iota
	LockHardwareRegister
	LockBakery
	LockCachedTAS
	LockPeterson
)

// String names the lock kind.
func (k LockKind) String() string {
	switch k {
	case LockUncachedTAS:
		return "uncached-tas"
	case LockHardwareRegister:
		return "hw-register"
	case LockBakery:
		return "bakery"
	case LockCachedTAS:
		return "cached-tas"
	case LockPeterson:
		return "peterson"
	default:
		return fmt.Sprintf("LockKind(%d)", uint8(k))
	}
}
