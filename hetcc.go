// Package hetcc is a cycle-level reproduction of "Supporting Cache
// Coherence in Heterogeneous Multiprocessor Systems" (Suh, Blough, Lee —
// DATE 2004): a hardware/software methodology that keeps data caches
// coherent on a shared-bus SoC integrating processors with different — or
// missing — invalidation-based coherence protocols.
//
// The package is a facade over the internal subsystems:
//
//   - internal/coherence — MEI/MSI/MESI/MOESI state machines;
//   - internal/core      — the paper's protocol-reduction rules, wrapper
//     policies, and an exhaustive single-line model checker;
//   - internal/bus, internal/cache, internal/cpu, internal/memory — the
//     simulated SoC substrate (AMBA ASB-like snooping bus, set-associative
//     caches with snooping controllers, program-driven cores);
//   - internal/wrapper, internal/snooplogic — the paper's hardware:
//     per-processor bus wrappers and the TAG-CAM snoop logic with
//     interrupt-driven drains;
//   - internal/lock, internal/workload, internal/platform — lock
//     mechanisms, the WCS/TCS/BCS microbenchmarks, and platform assembly.
//
// Use Run for a single simulation, and the Figure*/Table* runners in
// experiments.go to regenerate the paper's evaluation.
package hetcc

import (
	"fmt"
	"io"

	"hetcc/internal/coherence"
	"hetcc/internal/memory"
	"hetcc/internal/platform"
	"hetcc/internal/workload"
)

// Re-exported scenario and solution selectors, so callers need only this
// package for ordinary use.
const (
	WCS = workload.WCS
	TCS = workload.TCS
	BCS = workload.BCS

	CacheDisabled = platform.CacheDisabled
	Software      = platform.Software
	Proposed      = platform.Proposed
)

// Scenario aliases workload.Scenario.
type Scenario = workload.Scenario

// Solution aliases platform.Solution.
type Solution = platform.Solution

// Params aliases workload.Params.
type Params = workload.Params

// Config describes one microbenchmark simulation.
type Config struct {
	// Scenario is WCS, TCS or BCS.
	Scenario Scenario
	// Solution is the coherence strategy under test.
	Solution Solution
	// Processors defaults to the paper's performance platform
	// (PowerPC755 + ARM920T, the PF2 case study).
	Processors []platform.ProcessorSpec
	// Params are the microbenchmark knobs; zero fields take defaults.
	Params Params
	// Timing overrides the Table 4 memory timing (Figure 8's sweep).
	Timing memory.Timing
	// Lock overrides the lock mechanism; the zero value selects the
	// uncached test-and-set lock with scenario-appropriate alternation.
	Lock *platform.LockChoice
	// Verify enables the golden-model staleness checker.
	Verify bool
	// RaceCheck (with Verify) also flags shared accesses performed while
	// holding no lock.
	RaceCheck bool
	// DisableWrappers removes the paper's wrappers while keeping hardware
	// snooping — the broken configuration of Tables 2 and 3.
	DisableWrappers bool
	// TraceCap, when positive, retains that many trace events.
	TraceCap int
	// VCD, when non-nil, receives an IEEE-1364 waveform dump of the run.
	VCD io.Writer
	// PipelinedBus enables the AHB-style address/data overlap ablation.
	PipelinedBus bool
	// Metrics enables the unified metrics layer (latency histograms, time
	// series, bus tenure spans); the run's snapshot lands in
	// Result.Metrics.
	Metrics bool
	// MetricsWindow overrides the time-series sampling window in engine
	// cycles (default platform.DefaultMetricsWindow).
	MetricsWindow uint64
	// Audit enables the typed coherence event stream and the online
	// invariant auditor; the run's summary lands in Result.Audit.
	Audit bool
	// EventLog, when non-nil, receives the coherence event stream as JSONL
	// (one object per line); callers hand in a buffered writer and flush it
	// after the run.
	EventLog io.Writer
	// Profile enables the per-core stall-cause cycle ledger; the run's
	// summary lands in Result.Profile and the per-core stall timeline in
	// Result.StallSpans.
	Profile bool
	// Spans enables the causal transaction-span collector; the run's
	// critical-path attribution lands in Result.CriticalPath (pair with
	// Profile for stall links and the ledger cross-check).
	Spans bool
	// Sharing enables the sharing-pattern collector (per-line
	// classification, communication matrix, address heatmap); the run's
	// summary lands in Result.Sharing.
	Sharing bool
	// Scheduler selects the engine scheduling strategy:
	// platform.SchedulerEvent (the default) or platform.SchedulerTick.
	// Both produce byte-identical reports and digests (DESIGN.md §8).
	Scheduler string
	// MaxCycles bounds the run (default 50M engine cycles).
	MaxCycles uint64
}

// Result is the outcome of one simulation.
type Result struct {
	platform.Result
	// EngineCyclesPerBusCycle converts between the 100 MHz engine clock
	// and the 50 MHz bus clock.
	EngineCyclesPerBusCycle uint64
}

// DefaultProcessors returns the paper's performance-evaluation platform.
func DefaultProcessors() []platform.ProcessorSpec { return platform.PPCARm() }

// Build assembles the platform and programs for cfg without running it
// (examples use this for custom instrumentation).
func Build(cfg Config) (*platform.Platform, error) {
	procs := cfg.Processors
	if len(procs) == 0 {
		procs = DefaultProcessors()
	}
	lockChoice := platform.LockChoice{
		Kind:      platform.LockUncachedTAS,
		Alternate: cfg.Scenario.Alternate(),
		SpinDelay: 4,
	}
	if cfg.Lock != nil {
		lockChoice = *cfg.Lock
	}
	p, err := platform.Build(platform.Config{
		Processors:      procs,
		Solution:        cfg.Solution,
		Timing:          cfg.Timing,
		Lock:            lockChoice,
		Verify:          cfg.Verify,
		RaceCheck:       cfg.RaceCheck,
		DisableWrappers: cfg.DisableWrappers,
		TraceCap:        cfg.TraceCap,
		VCD:             cfg.VCD,
		PipelinedBus:    cfg.PipelinedBus,
		Metrics:         cfg.Metrics,
		MetricsWindow:   cfg.MetricsWindow,
		Audit:           cfg.Audit,
		EventLog:        cfg.EventLog,
		Profile:         cfg.Profile,
		Spans:           cfg.Spans,
		Sharing:         cfg.Sharing,
		Scheduler:       cfg.Scheduler,
	})
	if err != nil {
		return nil, err
	}
	progs, err := workload.Programs(cfg.Scenario, cfg.Params, cfg.Solution, len(procs))
	if err != nil {
		return nil, err
	}
	if err := p.LoadPrograms(progs); err != nil {
		return nil, err
	}
	return p, nil
}

// Run builds and simulates cfg to completion.  A failed waveform dump
// (Config.VCD) is returned as the error beside the run's result.
func Run(cfg Config) (Result, error) {
	p, err := Build(cfg)
	if err != nil {
		return Result{}, err
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 50_000_000
	}
	res := p.Run(maxCycles)
	return Result{Result: res, EngineCyclesPerBusCycle: 2}, p.VCDErr()
}

// MustRun is Run for tests and examples where configuration errors are
// programming bugs.
func MustRun(cfg Config) Result {
	r, err := Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("hetcc: %v", err))
	}
	return r
}

// ProtocolName re-exports coherence protocol naming for report code.
func ProtocolName(k coherence.Kind) string { return k.String() }
