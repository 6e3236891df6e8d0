package main

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"hetcc"
	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/explore"
	"hetcc/internal/memory"
	"hetcc/internal/platform"
	"hetcc/internal/runner"
	"hetcc/internal/workload"
)

// op is one closed-loop operation: one simulation (sim != nil) or one
// explorer call (exp != nil).
type op struct {
	label string
	sim   *hetcc.Config
	// observed also streams the run's coherence events as JSONL into a
	// buffered writer that discards them, and builds the run's report and
	// its SHA-256 digest.
	observed bool
	exp      *explore.Config
	// rejected marks a wrapped mix core.Reduce refuses (any Dragon
	// heterogeneity): Explore must return that error, which is expected
	// output, not a failure.
	rejected bool
}

// bench is one named workload: the operations of one pass and the worker
// count that runs them.
type bench struct {
	name string
	jobs int
	ops  func(seed uint64) []op
	// census marks the explorer workload, whose set-up is building the
	// census itself (see censusOps).
	census bool
}

// sweepJobs is the figure sweep's worker count: up to 4, leaving one CPU to
// the garbage collector and the OS.  With a worker on every CPU of a 2-CPU
// host, ten runs of the sweep spread by about 20% in throughput.
var sweepJobs = max(1, min(runtime.GOMAXPROCS(0)-1, 4))

var benches = []bench{
	{name: "figure-sweep", jobs: sweepJobs, ops: figureSweepOps},
	{name: "contention-slow-memory", jobs: 1, ops: contentionOps},
	{name: "observed-matrix", jobs: 1, ops: observedMatrixOps},
	{name: "explore-census", jobs: 1, ops: censusOps, census: true},
}

func benchByName(name string) (bench, error) {
	var names []string
	for _, b := range benches {
		if b.name == name {
			return b, nil
		}
		names = append(names, b.name)
	}
	return bench{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// simOp adds a simulation to ops.  Every spec gets its own workload seed,
// derived from the benchmark seed and its index as hetcc.RunBatch derives
// BatchOptions.BaseSeed, so the seed drives TCS block choice.
func simOp(ops []op, seed uint64, label string, cfg hetcc.Config) []op {
	cfg.Verify = true
	cfg.Scheduler = platform.SchedulerEvent
	cfg.Params.Seed = runner.DeriveSeed(seed, len(ops))
	return append(ops, op{label: label, sim: &cfg})
}

// figureSweepOps is the paper's evaluation as cmd/experiments runs it on
// PF2: Figures 5-7 (scenario x exec_time x lines x solution) and Figure 8
// (scenario x lines x miss penalty x {software, proposed}), 222 runs.
func figureSweepOps(seed uint64) []op {
	var ops []op
	for _, s := range []hetcc.Scenario{hetcc.WCS, hetcc.BCS, hetcc.TCS} {
		for _, et := range hetcc.DefaultExecTimes() {
			for _, ln := range hetcc.DefaultLineCounts() {
				for _, sol := range platform.Solutions() {
					ops = simOp(ops, seed, fmt.Sprintf("%v/%v/exec=%d/lines=%d", s, sol, et, ln), hetcc.Config{
						Scenario: s, Solution: sol, Processors: platform.PPCARm(),
						Params: hetcc.Params{Lines: ln, ExecTime: et},
					})
				}
			}
		}
	}
	for _, s := range []hetcc.Scenario{hetcc.WCS, hetcc.TCS, hetcc.BCS} {
		for _, ln := range []int{1, 32} {
			for _, pen := range hetcc.DefaultMissPenalties() {
				for _, sol := range []hetcc.Solution{hetcc.Software, hetcc.Proposed} {
					ops = simOp(ops, seed, fmt.Sprintf("figure8 %v/%v lines=%d pen=%d", s, sol, ln, pen), hetcc.Config{
						Scenario: s, Solution: sol, Processors: platform.PPCARm(),
						Timing: memory.ScaledTiming(pen),
						Params: hetcc.Params{Lines: ln, ExecTime: 1},
					})
				}
			}
		}
	}
	return ops
}

// contentionIterations makes every contention run span millions of engine
// cycles.
const contentionIterations = 48

// contentionOps is a few long, fully conflicting simulations on slow
// memory: PF2 (TAG-CAM snoop logic) and PF3 (wrapper conversion), WCS and
// TCS, software and proposed.
func contentionOps(seed uint64) []op {
	var ops []op
	for _, pf := range []struct {
		name  string
		procs func() []platform.ProcessorSpec
	}{{"pf2", platform.PPCARm}, {"pf3", platform.PPCI486}} {
		for _, s := range []hetcc.Scenario{hetcc.WCS, hetcc.TCS} {
			for _, sol := range []hetcc.Solution{hetcc.Software, hetcc.Proposed} {
				ops = simOp(ops, seed, fmt.Sprintf("%s/%v/%v", pf.name, s, sol), hetcc.Config{
					Scenario: s, Solution: sol, Processors: pf.procs(),
					Timing: memory.ScaledTiming(96),
					Params: hetcc.Params{Lines: 32, ExecTime: 4, Iterations: contentionIterations},
				})
			}
		}
	}
	return ops
}

// matrixIterations lengthens the cmd/bench matrix runs to milliseconds.
const matrixIterations = 32

// observedMatrixOps is the 27-run cmd/bench matrix with every observer
// hetccsim -observe turns on, an event log, and a report digest per run.
func observedMatrixOps(seed uint64) []op {
	var ops []op
	for _, pf := range []struct {
		name  string
		procs func() []platform.ProcessorSpec
	}{{"pf1", platform.ARMPair}, {"pf2", platform.PPCARm}, {"pf3", platform.PPCI486}} {
		for _, s := range []hetcc.Scenario{hetcc.WCS, hetcc.TCS, hetcc.BCS} {
			for _, sol := range platform.Solutions() {
				ops = simOp(ops, seed, fmt.Sprintf("%s/%s/%v", pf.name, strings.ToLower(s.String()), sol), hetcc.Config{
					Scenario: s, Solution: sol, Processors: pf.procs(),
					Params:  hetcc.Params{Lines: 8, ExecTime: 1, Iterations: matrixIterations, WordsPerLine: 8},
					Metrics: true, Audit: true, Profile: true, Spans: true, Sharing: true,
				})
				ops[len(ops)-1].observed = true
			}
		}
	}
	return ops
}

// censusKinds is the explorer's protocol alphabet, none included.
var censusKinds = []coherence.Kind{
	coherence.MEI, coherence.MSI, coherence.MESI,
	coherence.MOESI, coherence.Dragon, coherence.None,
}

// censusOps enumerates every 2- and 3-master protocol multiset in the three
// hardware modes.  Building it runs core.Reduce on every mix, the reduction
// the wrapped model starts from, to know which mixes the method rejects;
// that is the census's set-up.  The seed does not enter: the census is
// exhaustive.
func censusOps(uint64) []op {
	var mixes [][]coherence.Kind
	for i := range censusKinds {
		for j := i; j < len(censusKinds); j++ {
			mixes = append(mixes, []coherence.Kind{censusKinds[i], censusKinds[j]})
		}
	}
	for i := range censusKinds {
		for j := i; j < len(censusKinds); j++ {
			for k := j; k < len(censusKinds); k++ {
				mixes = append(mixes, []coherence.Kind{censusKinds[i], censusKinds[j], censusKinds[k]})
			}
		}
	}
	var ops []op
	for _, kinds := range mixes {
		names := make([]string, len(kinds))
		for i, k := range kinds {
			names[i] = k.String()
		}
		_, err := core.Reduce(kinds)
		for _, mode := range []explore.Mode{explore.ModeWrapped, explore.ModeUnwired, explore.ModeNoSnoop} {
			ops = append(ops, op{
				label:    strings.Join(names, "+") + "/" + mode.String(),
				exp:      &explore.Config{Protocols: kinds, Mode: mode},
				rejected: mode == explore.ModeWrapped && err != nil,
			})
		}
	}
	return ops
}

// counts are the exact per-layer work counters of one operation, read from
// platform.Result, Engine.SchedStats and explore.Result after the call
// returns.
type counts struct {
	cycles, instructions, stallCycles, isrRuns             uint64
	wakes, passes                                          uint64
	tenures, aborted, busBusy, busIdle, fills, writeBacks  uint64
	cacheHits, cacheAccesses, snoopInvals, snoopFlushes    uint64
	camHits, spuriousHits, conversions, records, auditViol uint64
	states, transitions                                    uint64
}

func (c *counts) add(o counts) {
	c.cycles += o.cycles
	c.instructions += o.instructions
	c.stallCycles += o.stallCycles
	c.isrRuns += o.isrRuns
	c.wakes += o.wakes
	c.passes += o.passes
	c.tenures += o.tenures
	c.aborted += o.aborted
	c.busBusy += o.busBusy
	c.busIdle += o.busIdle
	c.fills += o.fills
	c.writeBacks += o.writeBacks
	c.cacheHits += o.cacheHits
	c.cacheAccesses += o.cacheAccesses
	c.snoopInvals += o.snoopInvals
	c.snoopFlushes += o.snoopFlushes
	c.camHits += o.camHits
	c.spuriousHits += o.spuriousHits
	c.conversions += o.conversions
	c.records += o.records
	c.auditViol += o.auditViol
	c.states += o.states
	c.transitions += o.transitions
}

func simCounts(p *platform.Platform, res platform.Result) counts {
	st := p.Engine.SchedStats()
	c := counts{
		cycles: res.Cycles, wakes: st.Wakes, passes: st.Passes,
		tenures: res.Bus.Tenures, aborted: res.Bus.Aborted,
		busBusy: res.Bus.BusyCycles, busIdle: res.Bus.IdleCycles,
		fills: res.Bus.LineFills, writeBacks: res.Bus.WriteBacks,
	}
	for _, s := range res.CPU {
		c.instructions += s.Instructions
		c.stallCycles += s.StallCycles
		c.isrRuns += s.ISRRuns
	}
	for _, s := range res.Cache {
		c.cacheHits += s.ReadHits + s.WriteHits
		c.cacheAccesses += s.ReadHits + s.ReadMisses + s.WriteHits + s.WriteMisses
		c.snoopInvals += s.SnoopInvalidations
		c.snoopFlushes += s.SnoopFlushes
	}
	for _, s := range res.Snoop {
		c.camHits += s.Hits
		c.spuriousHits += s.SpuriousHits
	}
	for _, n := range res.WrapperConv {
		c.conversions += n
	}
	if res.Audit != nil {
		for _, n := range res.Audit.Events {
			c.records += n
		}
		c.auditViol = res.Audit.ViolationCount
	}
	return c
}

// outcome is what one operation produced.  The exact outputs (counts.cycles,
// digest, counts.states, rejected) must match the reference pass.
type outcome struct {
	counts
	digest   string
	rejected bool
	// setup is the host time in hetcc.Build (or its traced equivalent);
	// work is the host time in Platform.Run or explore.Explore.
	setup, work time.Duration
	spans       []span
	// err is the failure condition the operation hit, if any.
	err error
}

// execute runs one operation.  With rec non-nil it records a span around
// each public call; the simulation is then built through tracedBuild.
func execute(o op, rec *recorder) outcome {
	if o.exp != nil {
		return exploreOp(o, rec)
	}
	cfg := *o.sim
	var events *bufio.Writer
	if o.observed {
		events = bufio.NewWriter(io.Discard)
		cfg.EventLog = events
	}
	var out outcome
	root := rec.begin("op", -1)
	t0 := time.Now()
	var p *platform.Platform
	var err error
	if rec == nil {
		p, err = hetcc.Build(cfg)
	} else {
		p, err = tracedBuild(cfg, rec, root)
	}
	t1 := time.Now()
	out.setup = t1.Sub(t0)
	if err != nil {
		out.err = fmt.Errorf("build: %w", err)
		rec.end(root)
		out.spans = rec.take()
		return out
	}
	s := rec.begin("platform.run", root)
	res := p.Run(maxCycles(cfg))
	rec.end(s)
	out.work = time.Since(t1)
	if events != nil {
		if err := events.Flush(); err != nil {
			out.err = fmt.Errorf("event log: %w", err)
		}
	}
	if o.observed {
		s := rec.begin("platform.report", root)
		out.digest, err = runner.ReportDigest(p.Report(res, cfg.Scenario.String()))
		rec.end(s)
		if err != nil {
			out.err = err
		}
	}
	rec.end(root)
	out.spans = rec.take()
	out.counts = simCounts(p, res)
	if out.err == nil {
		out.err = simFailure(res)
	}
	return out
}

func maxCycles(cfg hetcc.Config) uint64 {
	if cfg.MaxCycles == 0 {
		return 50_000_000
	}
	return cfg.MaxCycles
}

// simFailure applies the simulation failure conditions: an abnormal end
// (error, deadlock or exhausted cycle budget), a stale read seen by the
// golden-model checker, or an auditor violation.
func simFailure(res platform.Result) error {
	switch {
	case res.Err != nil:
		return fmt.Errorf("run ended abnormally: %w (%s)", res.Err, res.StopReason)
	case !res.Coherent():
		return fmt.Errorf("incoherent: %v", res.Violations[0])
	case res.Audit != nil && res.Audit.ViolationCount > 0:
		return fmt.Errorf("%d auditor violation(s), first: %v", res.Audit.ViolationCount, res.Audit.Violations[0])
	}
	return nil
}

// tracedBuild is hetcc.Build split into its three public calls, each inside
// a span: platform.Build, workload.Programs and Platform.LoadPrograms.  The
// reference pass builds through hetcc.Build, and every traced run must match
// its cycles and digests, so the two builds cannot drift apart unnoticed.
func tracedBuild(cfg hetcc.Config, rec *recorder, parent int) (*platform.Platform, error) {
	procs := cfg.Processors
	if len(procs) == 0 {
		procs = hetcc.DefaultProcessors()
	}
	lock := platform.LockChoice{Kind: platform.LockUncachedTAS, Alternate: cfg.Scenario.Alternate(), SpinDelay: 4}
	if cfg.Lock != nil {
		lock = *cfg.Lock
	}
	s := rec.begin("platform.build", parent)
	p, err := platform.Build(platform.Config{
		Processors: procs, Solution: cfg.Solution, Timing: cfg.Timing, Lock: lock,
		Verify: cfg.Verify, RaceCheck: cfg.RaceCheck, DisableWrappers: cfg.DisableWrappers,
		TraceCap: cfg.TraceCap, VCD: cfg.VCD, PipelinedBus: cfg.PipelinedBus,
		Metrics: cfg.Metrics, MetricsWindow: cfg.MetricsWindow, Audit: cfg.Audit,
		EventLog: cfg.EventLog, Profile: cfg.Profile, Spans: cfg.Spans, Sharing: cfg.Sharing,
		Scheduler: cfg.Scheduler,
	})
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin("workload.programs", parent)
	progs, err := workload.Programs(cfg.Scenario, cfg.Params, cfg.Solution, len(procs))
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin("platform.load", parent)
	err = p.LoadPrograms(progs)
	rec.end(s)
	return p, err
}

// exploreOp runs one explorer call.  A wrapped Dragon mix must be rejected;
// a wrapped violation or an incomplete sweep in any mode is a failure.
func exploreOp(o op, rec *recorder) outcome {
	var out outcome
	root := rec.begin("op", -1)
	s := rec.begin("explore.explore", root)
	t0 := time.Now()
	res, err := explore.Explore(*o.exp)
	out.work = time.Since(t0)
	rec.end(s)
	rec.end(root)
	out.spans = rec.take()
	switch {
	case err != nil && o.rejected:
		out.rejected = true
	case err != nil:
		out.err = err
	case o.rejected:
		out.err = fmt.Errorf("wrapped mix accepted, but core.Reduce rejects it")
	case !res.Complete:
		out.err = fmt.Errorf("incomplete sweep: %d states dropped", res.Dropped)
	case o.exp.Mode == explore.ModeWrapped && len(res.Violations) > 0:
		out.err = fmt.Errorf("wrapped violation: %v", res.Violations[0])
	}
	if res != nil {
		out.states = uint64(res.States)
		out.transitions = uint64(res.Transitions)
	}
	return out
}

// referencePass runs every operation once through the public batch API
// (hetcc.RunBatch for simulations) and returns the exact outputs the timed
// passes must reproduce.  It doubles as warm-up.
func referencePass(b bench, ops []op) []outcome {
	ref := make([]outcome, len(ops))
	if b.census {
		for i, o := range ops {
			ref[i] = execute(o, nil)
		}
		return ref
	}
	specs := make([]hetcc.BatchSpec, len(ops))
	reports := false
	for i, o := range ops {
		specs[i] = hetcc.BatchSpec{Label: o.label, Config: *o.sim}
		if o.observed {
			specs[i].Config.EventLog = bufio.NewWriter(io.Discard)
		}
		reports = reports || o.observed
	}
	for i, r := range hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: b.jobs, Reports: reports}) {
		ref[i].digest = r.Digest
		ref[i].cycles = r.Result.Cycles
		if r.Err != nil {
			ref[i].err = r.Err
		} else {
			ref[i].err = simFailure(r.Result.Result)
		}
	}
	return ref
}

// mismatch reports how a timed outcome differs from the reference.
func mismatch(got, want outcome) error {
	switch {
	case got.cycles != want.cycles:
		return fmt.Errorf("simulated %d cycles, reference %d", got.cycles, want.cycles)
	case got.digest != want.digest:
		return fmt.Errorf("report digest %s, reference %s", got.digest, want.digest)
	case got.states != want.states || got.transitions != want.transitions:
		return fmt.Errorf("explored %d states/%d transitions, reference %d/%d",
			got.states, got.transitions, want.states, want.transitions)
	case got.rejected != want.rejected:
		return fmt.Errorf("rejected=%v, reference %v", got.rejected, want.rejected)
	}
	return nil
}
