package hetcc

import (
	"fmt"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/isa"
	"hetcc/internal/memory"
	"hetcc/internal/platform"
)

// DefaultLineCounts is the x-axis of the paper's Figures 5–7 ("# of
// accessed cache lines per iteration", 1..32).
func DefaultLineCounts() []int { return []int{1, 2, 4, 8, 16, 32} }

// DefaultExecTimes is the paper's exec_time parameter set.
func DefaultExecTimes() []int { return []int{1, 2, 4} }

// DefaultMissPenalties is the Figure 8 sweep of the burst miss penalty in
// bus cycles (13 is the Table 4 baseline; the paper sweeps to 96).
func DefaultMissPenalties() []int { return []int{13, 24, 48, 72, 96} }

// RatioPoint is one x-position of a Figure 5/6/7 chart: the execution time
// of each strategy and the ratios relative to the cache-disabled run, as
// the paper plots them.
type RatioPoint struct {
	Scenario Scenario
	ExecTime int
	Lines    int

	CyclesDisabled uint64
	CyclesSoftware uint64
	CyclesProposed uint64

	// RatioSoftware/RatioProposed are execution-time ratios relative to
	// the cache-disabled baseline (the y-axis of Figures 5–7).
	RatioSoftware float64
	RatioProposed float64
	// SpeedupVsSoftwarePct is the paper's "% speedup compared to the
	// software solution".
	SpeedupVsSoftwarePct float64
}

func ratios(p RatioPoint) RatioPoint {
	d := float64(p.CyclesDisabled)
	if d > 0 {
		p.RatioSoftware = float64(p.CyclesSoftware) / d
		p.RatioProposed = float64(p.CyclesProposed) / d
	}
	if p.CyclesSoftware > 0 {
		p.SpeedupVsSoftwarePct = (float64(p.CyclesSoftware) - float64(p.CyclesProposed)) / float64(p.CyclesSoftware) * 100
	}
	return p
}

// FigureOptions tunes the figure runners; the zero value reproduces the
// paper's configuration.
type FigureOptions struct {
	ExecTimes  []int
	LineCounts []int
	Iterations int
	Seed       uint64
	Timing     memory.Timing
	Processors []platform.ProcessorSpec
	Verify     bool
	// Audit additionally runs the online invariant auditor in every
	// simulation; any invariant violation fails the figure.
	Audit bool
	// Jobs is the batch worker count (<= 0 selects GOMAXPROCS).  Points are
	// aggregated in sweep order, so the figure output is byte-identical
	// whatever the worker count.
	Jobs int
	// Scheduler selects the engine scheduling strategy for every run
	// (platform.SchedulerEvent or platform.SchedulerTick; "" = default).
	// Both produce identical figures — CI diffs the two outputs.
	Scheduler string
}

func (o FigureOptions) defaults() FigureOptions {
	if len(o.ExecTimes) == 0 {
		o.ExecTimes = DefaultExecTimes()
	}
	if len(o.LineCounts) == 0 {
		o.LineCounts = DefaultLineCounts()
	}
	return o
}

// figureSpec builds the batch spec for one (scenario, solution, exec_time,
// lines) coordinate of a Figure 5–7 sweep.
func figureSpec(s Scenario, sol Solution, execTime, lines int, o FigureOptions) BatchSpec {
	return BatchSpec{
		Label: fmt.Sprintf("%v/%v/exec=%d/lines=%d", s, sol, execTime, lines),
		Config: Config{
			Scenario:   s,
			Solution:   sol,
			Processors: o.Processors,
			Timing:     o.Timing,
			Verify:     o.Verify,
			Audit:      o.Audit,
			Scheduler:  o.Scheduler,
			Params: Params{
				Lines:      lines,
				ExecTime:   execTime,
				Iterations: o.Iterations,
				Seed:       o.Seed,
			},
		},
	}
}

// FigureRatios reproduces one of Figures 5–7: scenario s swept over
// exec_time and line counts.  The sweep's runs execute on a worker pool of
// opts.Jobs workers; points are assembled in sweep order.
func FigureRatios(s Scenario, opts FigureOptions) ([]RatioPoint, error) {
	o := opts.defaults()
	// One run per (exec_time, lines, solution) coordinate, flattened in
	// sweep order so aggregation (and any error reported) is independent of
	// the worker count.
	var specs []BatchSpec
	for _, et := range o.ExecTimes {
		for _, ln := range o.LineCounts {
			for _, sol := range platform.Solutions() {
				specs = append(specs, figureSpec(s, sol, et, ln, o))
			}
		}
	}
	results := RunBatch(specs, BatchOptions{Jobs: o.Jobs})
	if err := BatchFirstError(results); err != nil {
		return nil, err
	}
	var out []RatioPoint
	i := 0
	for _, et := range o.ExecTimes {
		for _, ln := range o.LineCounts {
			pt := RatioPoint{Scenario: s, ExecTime: et, Lines: ln}
			for _, sol := range platform.Solutions() {
				cycles := results[i].Result.Cycles
				i++
				switch sol {
				case CacheDisabled:
					pt.CyclesDisabled = cycles
				case Software:
					pt.CyclesSoftware = cycles
				case Proposed:
					pt.CyclesProposed = cycles
				}
			}
			out = append(out, ratios(pt))
		}
	}
	return out, nil
}

// Figure5 reproduces the worst-case-scenario chart.
func Figure5(opts FigureOptions) ([]RatioPoint, error) { return FigureRatios(WCS, opts) }

// Figure6 reproduces the best-case-scenario chart.
func Figure6(opts FigureOptions) ([]RatioPoint, error) { return FigureRatios(BCS, opts) }

// Figure7 reproduces the typical-case-scenario chart.
func Figure7(opts FigureOptions) ([]RatioPoint, error) { return FigureRatios(TCS, opts) }

// PenaltyPoint is one coordinate of Figure 8: the proposed solution's
// execution time relative to the software solution as the miss penalty
// grows.
type PenaltyPoint struct {
	Scenario    Scenario
	Lines       int
	MissPenalty int // burst (8-word) latency in bus cycles

	CyclesSoftware uint64
	CyclesProposed uint64
	// RatioVsSoftware is the y-axis of Figure 8 (proposed / software).
	RatioVsSoftware float64
	SpeedupPct      float64
}

// Figure8 reproduces the miss-penalty sweep: scenarios × lines ∈ {1, 32} ×
// penalties, batched like FigureRatios.
func Figure8(penalties []int, opts FigureOptions) ([]PenaltyPoint, error) {
	if len(penalties) == 0 {
		penalties = DefaultMissPenalties()
	}
	o := opts.defaults()
	scenarios := []Scenario{WCS, TCS, BCS}
	solutions := []Solution{Software, Proposed}
	lineCounts := []int{1, 32}
	var specs []BatchSpec
	for _, s := range scenarios {
		for _, lines := range lineCounts {
			for _, pen := range penalties {
				for _, sol := range solutions {
					specs = append(specs, BatchSpec{
						Label: fmt.Sprintf("figure8 %v/%v lines=%d pen=%d", s, sol, lines, pen),
						Config: Config{
							Scenario:   s,
							Solution:   sol,
							Processors: o.Processors,
							Timing:     memory.ScaledTiming(pen),
							Verify:     o.Verify,
							Audit:      o.Audit,
							Scheduler:  o.Scheduler,
							Params: Params{
								Lines:      lines,
								ExecTime:   1,
								Iterations: o.Iterations,
								Seed:       o.Seed,
							},
						},
					})
				}
			}
		}
	}
	results := RunBatch(specs, BatchOptions{Jobs: o.Jobs})
	if err := BatchFirstError(results); err != nil {
		return nil, err
	}
	var out []PenaltyPoint
	i := 0
	for _, s := range scenarios {
		for _, lines := range lineCounts {
			for _, pen := range penalties {
				pt := PenaltyPoint{Scenario: s, Lines: lines, MissPenalty: pen}
				pt.CyclesSoftware = results[i].Result.Cycles
				pt.CyclesProposed = results[i+1].Result.Cycles
				i += 2
				if pt.CyclesSoftware > 0 {
					pt.RatioVsSoftware = float64(pt.CyclesProposed) / float64(pt.CyclesSoftware)
					pt.SpeedupPct = (float64(pt.CyclesSoftware) - float64(pt.CyclesProposed)) / float64(pt.CyclesSoftware) * 100
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

// Table1Row is one platform-class row of the paper's Table 1.
type Table1Row struct {
	Class       core.PlatformClass
	Description string
	Example     string
}

// Table1 reproduces the platform classification.
func Table1() []Table1Row {
	classify := func(ks ...coherence.Kind) core.PlatformClass {
		c, err := core.Classify(ks)
		if err != nil {
			panic(err)
		}
		return c
	}
	return []Table1Row{
		{
			Class:       classify(coherence.None, coherence.None),
			Description: "no processor has cache coherence hardware",
			Example:     "ARM920T + ARM920T",
		},
		{
			Class:       classify(coherence.MEI, coherence.None),
			Description: "one processor has coherence hardware, the other does not",
			Example:     "PowerPC755 (MEI) + ARM920T",
		},
		{
			Class:       classify(coherence.MEI, coherence.MESI),
			Description: "every processor has cache coherence hardware",
			Example:     "PowerPC755 (MEI) + Intel486 (MESI)",
		},
	}
}

// SequenceStep is one row of a Table 2/3 replay: the operation and the
// per-processor line states sampled after it completed.
type SequenceStep struct {
	Label  string
	Op     string
	States []coherence.State
}

// SequenceResult is the outcome of replaying a Table 2/3 operation
// sequence on the full simulator.
type SequenceResult struct {
	Protocols []coherence.Kind
	Wrappers  bool
	Steps     []SequenceStep
	// StaleRead reports whether the final read observed stale data — the
	// defect the tables illustrate.
	StaleRead  bool
	Violations []platform.Violation
}

// replaySequence runs the canonical a/b/c/d sequence (P0 reads, P1 reads,
// P1 writes, P0 reads — the same line) on a two-processor platform with the
// given native protocols, with or without the paper's wrappers.
func replaySequence(p0, p1 coherence.Kind, wrappers bool) (SequenceResult, error) {
	specs := []platform.ProcessorSpec{
		platform.Generic("P0-"+p0.String(), p0, 1),
		platform.Generic("P1-"+p1.String(), p1, 1),
	}
	plat, err := platform.Build(platform.Config{
		Processors:      specs,
		Solution:        platform.Proposed,
		Lock:            platform.LockChoice{Kind: platform.LockUncachedTAS},
		DisableWrappers: !wrappers,
		Verify:          true,
	})
	if err != nil {
		return SequenceResult{}, err
	}
	addr := platform.SharedBase
	const phase = 2000
	progsrc := [][]struct {
		at    int
		write bool
		val   uint32
	}{
		{{at: 0}, {at: 3 * phase}},                               // P0: a (read), d (read)
		{{at: 1 * phase}, {at: 2 * phase, write: true, val: 42}}, // P1: b (read), c (write)
	}
	progs := buildTimedPrograms(progsrc, addr)
	if err := plat.LoadPrograms(progs); err != nil {
		return SequenceResult{}, err
	}

	res := SequenceResult{Protocols: []coherence.Kind{p0, p1}, Wrappers: wrappers}
	labels := []string{"a: P0 reads", "b: P1 reads", "c: P1 writes", "d: P0 reads"}
	for i := 0; i < 4; i++ {
		target := uint64((i + 1) * phase)
		for plat.Engine.Now() < target && !plat.Engine.Stopped() {
			plat.Engine.Step()
		}
		res.Steps = append(res.Steps, SequenceStep{
			Label: labels[i],
			Op:    labels[i][3:],
			States: []coherence.State{
				plat.Controllers[0].Cache().StateOf(addr),
				plat.Controllers[1].Cache().StateOf(addr),
			},
		})
	}
	final := plat.Run(1_000_000)
	res.Violations = final.Violations
	res.StaleRead = len(final.Violations) > 0
	return res, nil
}

// buildTimedPrograms turns per-task timed access lists into delay-padded
// programs (1 CPU cycle per op is negligible against the phase spacing).
func buildTimedPrograms(src [][]struct {
	at    int
	write bool
	val   uint32
}, addr uint32) []isa.Program {
	progs := make([]isa.Program, len(src))
	for t, accesses := range src {
		b := isa.NewBuilder()
		elapsed := 0
		for _, a := range accesses {
			if a.at > elapsed {
				b.Delay(a.at - elapsed)
				elapsed = a.at
			}
			if a.write {
				b.Write(addr, a.val)
			} else {
				b.Read(addr)
			}
			elapsed++
		}
		progs[t] = b.Halt()
	}
	return progs
}

// Table2 replays the paper's Table 2 (MEI + MESI): without wrappers the
// final read is stale; with the paper's integration it is coherent.
// The paper's table lists P1 as the MESI processor and P2 as MEI; replay
// keeps that order (P0 = MESI, P1 = MEI).
func Table2() (broken, fixed SequenceResult, err error) {
	broken, err = replaySequence(coherence.MESI, coherence.MEI, false)
	if err != nil {
		return
	}
	fixed, err = replaySequence(coherence.MESI, coherence.MEI, true)
	return
}

// Table3 replays the paper's Table 3 (MSI + MESI): P0 = MSI, P1 = MESI.
func Table3() (broken, fixed SequenceResult, err error) {
	broken, err = replaySequence(coherence.MSI, coherence.MESI, false)
	if err != nil {
		return
	}
	fixed, err = replaySequence(coherence.MSI, coherence.MESI, true)
	return
}

// Table4 summarises the simulation environment defaults, mirroring the
// paper's Table 4.
type Table4Info struct {
	PowerPCClockMHz  int
	ARMClockMHz      int
	BusClockMHz      int
	SingleWordCycles int
	BurstCycles      int
	LineBytes        int
}

// Table4 returns the defaults in force.
func Table4() Table4Info {
	t := memory.DefaultTiming()
	return Table4Info{
		PowerPCClockMHz:  100,
		ARMClockMHz:      50,
		BusClockMHz:      50,
		SingleWordCycles: t.SingleWord,
		BurstCycles:      t.BurstLatency(8),
		LineBytes:        32,
	}
}
