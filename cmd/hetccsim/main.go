// Command hetccsim runs one microbenchmark simulation on a heterogeneous
// platform and prints a detailed statistics report.
//
// Examples:
//
//	hetccsim -scenario wcs -solution proposed -lines 32 -exectime 4
//	hetccsim -scenario bcs -solution software -lines 16 -penalty 96
//	hetccsim -platform ppc-i486 -scenario tcs -solution proposed -trace 50
//	hetccsim -scenario wcs -penalty 96 -compare baseline-report.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hetcc"
	"hetcc/internal/chrometrace"
	"hetcc/internal/delta"
	"hetcc/internal/isa"
	"hetcc/internal/memory"
	"hetcc/internal/platform"
	"hetcc/internal/profile"
	"hetcc/internal/sharing"
	"hetcc/internal/span"
	"hetcc/internal/stats"
)

func main() {
	var (
		scenarioFlag = flag.String("scenario", "wcs", "microbenchmark scenario: wcs, tcs, bcs")
		solutionFlag = flag.String("solution", "proposed", "coherence strategy: disabled, software, proposed")
		platFlag     = flag.String("platform", "ppc-arm", "platform preset: ppc-arm (PF2), ppc-i486 (PF3), arm-arm (PF1)")
		configPath   = flag.String("config", "", "JSON platform definition (overrides -platform); see platform.SpecsFromJSON")
		progFlags    progList
		lockFlag     = flag.String("lock", "uncached-tas", "lock mechanism: uncached-tas, hw-register, bakery, peterson, cached-tas")
		alternate    = flag.String("alternate", "auto", "strict lock alternation: auto (per scenario), on, off")
		lines        = flag.Int("lines", 8, "cache lines accessed per iteration")
		execTime     = flag.Int("exectime", 1, "inner iterations per critical section (paper exec_time)")
		iterations   = flag.Int("iterations", 8, "critical-section entries per task")
		words        = flag.Int("words", 8, "words touched per line per iteration")
		penalty      = flag.Int("penalty", 13, "burst miss penalty in bus cycles (paper default 13)")
		seed         = flag.Uint64("seed", 0, "workload seed (0 = default)")
		verify       = flag.Bool("verify", true, "run the golden-model staleness checker")
		auditFlag    = flag.Bool("audit", false, "run the online coherence invariant auditor (SWMR, single dirty owner, data value, reduction-table states)")
		eventsPath   = flag.String("events", "", "write the typed coherence event stream as JSONL to this file")
		traceN       = flag.Int("trace", 0, "retain and print the last N trace events")
		vcdPath      = flag.String("vcd", "", "write an IEEE-1364 waveform dump (GTKWave) to this file")
		reportPath   = flag.String("report", "", "write a machine-readable JSON run report to this file")
		chromePath   = flag.String("chrometrace", "", "write a Chrome trace-event dump (load in Perfetto / chrome://tracing) to this file")
		profilePath  = flag.String("profile", "", "write a folded-stack stall-cause profile (flamegraph.pl / speedscope input) to this file")
		spansPath    = flag.String("spans", "", "write the causal transaction spans (lifecycle + retry/drain edges + stall links) as JSONL to this file")
		sharingPath  = flag.String("sharing", "", "write the sharing-pattern summary (per-line classes, communication matrix, address heatmap) as JSONL to this file and print the hot-line and matrix tables")
		explainFlag  = flag.Bool("explain", false, "print the critical-path analysis: top-K blocking transactions and the per-cause cycle attribution of the last-retiring core")
		comparePath  = flag.String("compare", "", "baseline run report (JSON, any schema version) to explain this run's cycle delta against")
		observeDir   = flag.String("observe", "", "write every observability artifact (report, events, audit, stall profile, chrome trace, spans, sharing) into this directory; equivalent to setting -report/-events/-audit/-profile/-chrometrace/-spans/-sharing together (explicit flags win)")
		metricsWin   = flag.Uint64("metricswindow", 0, "time-series sampling window in engine cycles (0 = default)")
		schedFlag    = flag.String("scheduler", platform.SchedulerEvent, "engine scheduling strategy: event (skips idle cycles) or tick (reference semantics)")
		maxCycles    = flag.Uint64("maxcycles", 50_000_000, "cycle budget")
	)
	flag.Var(&progFlags, "prog", "assembly program for one core, as core=path (repeatable; see isa.Assemble for the syntax; cores without one halt immediately)")
	flag.Parse()

	scenario, err := parseScenario(*scenarioFlag)
	fatalIf(err)
	solution, err := parseSolution(*solutionFlag)
	fatalIf(err)
	procs, err := parsePlatform(*platFlag)
	fatalIf(err)
	if *configPath != "" {
		f, ferr := os.Open(*configPath)
		fatalIf(ferr)
		procs, err = platform.SpecsFromJSON(f)
		f.Close()
		fatalIf(err)
	}
	lockKind, err := parseLock(*lockFlag)
	fatalIf(err)

	alt := scenario.Alternate()
	switch *alternate {
	case "auto":
	case "on":
		alt = true
	case "off":
		alt = false
	default:
		fatalIf(fmt.Errorf("unknown -alternate %q (want auto, on, off)", *alternate))
	}
	if lockKind == platform.LockCachedTAS && *alternate == "auto" {
		// The deadlock demonstration needs direct contention on the cached
		// lock word; turn alternation would mask it.
		alt = false
	}
	lk := platform.LockChoice{Kind: lockKind, Alternate: alt, SpinDelay: 4}
	cfg := hetcc.Config{
		Scenario:   scenario,
		Solution:   solution,
		Processors: procs,
		Lock:       &lk,
		Verify:     *verify,
		TraceCap:   *traceN,
		Scheduler:  *schedFlag,
		MaxCycles:  *maxCycles,
		Params: hetcc.Params{
			Lines:        *lines,
			ExecTime:     *execTime,
			Iterations:   *iterations,
			WordsPerLine: *words,
			Seed:         *seed,
		},
	}
	if *penalty != 13 {
		cfg.Timing = memory.ScaledTiming(*penalty)
	}
	if *observeDir != "" {
		// One flag, every artifact: fill in each path not set explicitly
		// and enable the auditor.
		fatalIf(os.MkdirAll(*observeDir, 0o755))
		setDefault := func(p *string, name string) {
			if *p == "" {
				*p = *observeDir + string(os.PathSeparator) + name
			}
		}
		setDefault(reportPath, "report.json")
		setDefault(eventsPath, "events.jsonl")
		setDefault(chromePath, "trace.json")
		setDefault(profilePath, "profile.folded")
		setDefault(spansPath, "spans.jsonl")
		setDefault(sharingPath, "sharing.jsonl")
		*auditFlag = true
	}
	if *sharingPath != "" {
		cfg.Sharing = true
	}
	if *reportPath != "" {
		cfg.Metrics = true
		cfg.MetricsWindow = *metricsWin
	}
	if *reportPath != "" || *chromePath != "" || *profilePath != "" || *spansPath != "" || *explainFlag || *comparePath != "" {
		cfg.Profile = true
	}
	if *reportPath != "" || *chromePath != "" || *spansPath != "" || *explainFlag || *comparePath != "" {
		cfg.Spans = true
	}
	if *chromePath != "" && cfg.TraceCap == 0 {
		// The Chrome trace wants the event log as instant markers; retain a
		// generous window without turning on the textual trace dump.
		cfg.TraceCap = 100_000
	}
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		fatalIf(err)
		defer f.Close()
		cfg.VCD = f
	}
	cfg.Audit = *auditFlag
	var eventsBuf *bufio.Writer
	var eventsFile *os.File
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		fatalIf(err)
		eventsFile = f
		eventsBuf = bufio.NewWriter(f)
		cfg.EventLog = eventsBuf
	}

	p, err := hetcc.Build(cfg)
	fatalIf(err)
	// Reports carry full provenance: this binary's toolchain, the CLI flags
	// and the workload seed (the -compare explainer diffs these first).
	p.Manifest = platform.NewManifest(os.Args[1:], *seed)
	if len(progFlags) > 0 {
		progs := make([]isa.Program, len(p.CPUs))
		for i := range progs {
			progs[i] = isa.Program{{Kind: isa.Halt}}
		}
		for _, pf := range progFlags {
			if pf.core < 0 || pf.core >= len(progs) {
				fatalIf(fmt.Errorf("-prog core %d out of range (platform has %d cores)", pf.core, len(progs)))
			}
			src, rerr := os.ReadFile(pf.path)
			fatalIf(rerr)
			prog, aerr := isa.Assemble(string(src))
			fatalIf(aerr)
			progs[pf.core] = prog
		}
		fatalIf(p.LoadPrograms(progs))
	}
	res := p.Run(*maxCycles)
	if dropped := res.TraceDropped; dropped > 0 {
		fmt.Fprintf(os.Stderr, "hetccsim: warning: %d trace events dropped by the ring bound; "+
			"trace-derived output covers only the retained tail (raise -trace to keep more)\n", dropped)
	}

	platName := *platFlag
	if *configPath != "" {
		platName = *configPath
	}
	fmt.Printf("hetcc simulation: %v on %s, %v solution, %v lock\n",
		scenario, platName, solution, lockKind)
	fmt.Printf("platform class %v, effective protocol %v\n",
		p.Integration.Class, p.Integration.Effective)
	if p.Integration.LockCaveat != "" {
		fmt.Printf("note: %s\n", p.Integration.LockCaveat)
	}
	fmt.Println()

	if res.Err != nil {
		fmt.Printf("RUN ENDED ABNORMALLY: %v (reason: %s)\n\n", res.Err, res.StopReason)
	}
	util := 0.0
	if total := res.Bus.BusyCycles + res.Bus.IdleCycles; total > 0 {
		util = float64(res.Bus.BusyCycles) / float64(total) * 100
	}
	fmt.Printf("execution time: %d engine cycles (%d bus cycles @ 50 MHz), bus utilisation %.1f%%\n\n", res.Cycles, res.Cycles/platform.BusClockDiv, util)

	busT := stats.NewTable("Bus", "tenures", "completed", "aborted(ARTRY)", "fills", "writebacks", "upgrades", "word r/w", "rmw", "c2c", "busy", "idle")
	busT.AddRow(res.Bus.Tenures, res.Bus.Completed, res.Bus.Aborted, res.Bus.LineFills,
		res.Bus.WriteBacks, res.Bus.LineUpgrades,
		fmt.Sprintf("%d/%d", res.Bus.WordReads, res.Bus.WordWrites), res.Bus.RMWs,
		res.Bus.Supplied, res.Bus.BusyCycles, res.Bus.IdleCycles)
	busT.Render(os.Stdout)
	fmt.Println()

	cpuT := stats.NewTable("Cores", "core", "instr", "stall", "delay", "lockAcq", "fiq", "isr", "isrCycles", "halt@")
	for i, c := range res.CPU {
		cpuT.AddRow(p.CPUs[i].Name(), c.Instructions, c.StallCycles, c.DelayCycles, c.LockAcquires, c.FIQsRaised, c.ISRRuns, c.ISRCycles, c.HaltCycle)
	}
	cpuT.Render(os.Stdout)
	fmt.Println()

	cacheT := stats.NewTable("Caches", "core", "rdHit", "rdMiss", "wrHit", "wrMiss", "upgr", "evict", "evictWB", "snoopHit", "snoopInv", "snoopFlush", "clean", "inval")
	for i, c := range res.Cache {
		cacheT.AddRow(p.CPUs[i].Name(), c.ReadHits, c.ReadMisses, c.WriteHits, c.WriteMisses, c.Upgrades,
			c.Evictions, c.EvictionWBs, c.SnoopHits, c.SnoopInvalidations, c.SnoopFlushes, c.CleanOps, c.InvalOps)
	}
	cacheT.Render(os.Stdout)
	fmt.Println()

	if res.Profile != nil {
		cols := []string{"core", "stall"}
		for _, c := range profile.Causes() {
			cols = append(cols, c.String())
		}
		profT := stats.NewTable("Stall causes", cols...)
		for _, cs := range res.Profile.Cores {
			row := []any{p.CPUs[cs.Core].Name(), cs.StallCycles}
			for _, c := range profile.Causes() {
				row = append(row, cs.Causes[c.String()])
			}
			profT.AddRow(row...)
		}
		profT.Render(os.Stdout)
		fmt.Println()
	}

	anySnoop := false
	snoopT := stats.NewTable("Snoop logic (TAG CAM)", "core", "inserts", "removes", "hits", "spurious", "retriesPending")
	for i, s := range res.Snoop {
		if p.SnoopLogics[i] == nil {
			continue
		}
		anySnoop = true
		snoopT.AddRow(p.CPUs[i].Name(), s.Inserts, s.Removes, s.Hits, s.SpuriousHits, s.RetriesWhilePending)
	}
	if anySnoop {
		snoopT.Render(os.Stdout)
		fmt.Println()
	}

	if *verify {
		if res.Coherent() {
			fmt.Println("golden-model check: PASS (no stale reads)")
		} else {
			fmt.Printf("golden-model check: FAIL — %d stale reads, first: %v\n", len(res.Violations), res.Violations[0])
		}
	}
	if a := res.Audit; a != nil {
		if a.ViolationCount == 0 {
			fmt.Printf("invariant audit: PASS (%d events, %d state transitions over %d lines)\n",
				sumCounts(a.Events), a.TransitionCount, len(a.Lines))
		} else {
			fmt.Printf("invariant audit: FAIL — %d violations, first: %v\n", a.ViolationCount, a.Violations[0])
		}
		for core, states := range a.Reachable {
			fmt.Printf("  core %d (%s) reachable states: %s\n", core, p.CPUs[core].Name(), strings.Join(states, " "))
		}
	}
	if eventsBuf != nil {
		fatalIf(p.CloseEventLog())
		fatalIf(eventsFile.Close())
		written, _ := p.EventLogStats()
		fmt.Printf("event stream: %d JSONL records written to %s\n", written, *eventsPath)
	}

	if *traceN > 0 && p.Log != nil {
		fmt.Printf("\nlast %d trace events (%d dropped):\n", p.Log.Len(), p.Log.Dropped())
		p.Log.WriteTo(os.Stdout)
	}
	if *vcdPath != "" {
		fatalIf(p.VCDErr())
		fmt.Printf("\nwaveform dump written to %s\n", *vcdPath)
	}
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		fatalIf(err)
		fatalIf(platform.WriteReport(f, p.Report(res, scenario.String())))
		fatalIf(f.Close())
		fmt.Printf("run report written to %s\n", *reportPath)
	}
	if *profilePath != "" {
		if res.Profile == nil {
			fatalIf(fmt.Errorf("-profile: run produced no stall profile"))
		}
		f, err := os.Create(*profilePath)
		fatalIf(err)
		fatalIf(profile.WriteFolded(f, *res.Profile, coreName(p)))
		fatalIf(f.Close())
		fmt.Printf("folded stall profile written to %s (flamegraph.pl %s > stalls.svg)\n", *profilePath, *profilePath)
	}
	if *spansPath != "" {
		f, err := os.Create(*spansPath)
		fatalIf(err)
		w := bufio.NewWriter(f)
		fatalIf(p.Spans().WriteJSONL(w))
		fatalIf(w.Flush())
		fatalIf(f.Close())
		fmt.Printf("transaction spans written to %s (%d transactions, %d dropped)\n",
			*spansPath, len(p.Spans().Txns()), p.Spans().Dropped())
	}
	if *sharingPath != "" {
		s := res.Sharing
		if s == nil {
			fatalIf(fmt.Errorf("-sharing: run produced no sharing summary"))
		}
		f, err := os.Create(*sharingPath)
		fatalIf(err)
		w := bufio.NewWriter(f)
		fatalIf(s.WriteJSONL(w))
		fatalIf(w.Flush())
		fatalIf(f.Close())
		fmt.Printf("sharing summary written to %s (%d lines, %d matrix cells, %d heat windows)\n",
			*sharingPath, len(s.Lines), len(s.Matrix), len(s.Heatmap.Windows))
		printSharing(s, p.MasterName)
	}
	if *chromePath != "" {
		events := chrometrace.FromTxns(p.Spans(), platform.BusClockDiv, res.Cycles, p.MasterName)
		events = append(events, chrometrace.FromLog(p.Log)...)
		events = append(events, chrometrace.FromStallSpans(res.StallSpans, coreName(p))...)
		if res.Audit != nil {
			events = append(events, chrometrace.FromViolations(res.Audit.Violations)...)
		}
		events = append(events, chrometrace.FromSpanEdges(p.Spans().Edges())...)
		if res.Sharing != nil {
			events = append(events, chrometrace.FromHeatmap(res.Sharing.Heatmap)...)
		}
		f, err := os.Create(*chromePath)
		fatalIf(err)
		fatalIf(chrometrace.Write(f, events))
		fatalIf(f.Close())
		fmt.Printf("chrome trace written to %s (open in Perfetto or chrome://tracing)\n", *chromePath)
	}
	if *explainFlag {
		printExplain(res.CriticalPath)
	}
	if *comparePath != "" {
		f, err := os.Open(*comparePath)
		fatalIf(err)
		baseline, err := platform.ReadReport(f)
		f.Close()
		fatalIf(err)
		oldName := baseline.Scenario
		if oldName == "" {
			oldName = *comparePath
		}
		e := delta.Compare(
			delta.FromReport(oldName+" (baseline)", baseline),
			delta.FromReport("this run", p.Report(res, scenario.String())),
		)
		fmt.Printf("\ndifferential analysis vs %s (schema v%d):\n", *comparePath, baseline.SchemaVersion)
		e.WriteText(os.Stdout, 10)
		if !e.Conserved() {
			fmt.Println("warning: attributed deltas do not sum to the total cycle delta")
		}
	}

	if res.Err != nil {
		os.Exit(1)
	}
}

// progList collects repeated -prog core=path flags.
type progList []progSpec

type progSpec struct {
	core int
	path string
}

func (l *progList) String() string {
	var parts []string
	for _, p := range *l {
		parts = append(parts, fmt.Sprintf("%d=%s", p.core, p.path))
	}
	return strings.Join(parts, ",")
}

func (l *progList) Set(v string) error {
	idx := strings.IndexByte(v, '=')
	if idx <= 0 {
		return fmt.Errorf("want core=path, got %q", v)
	}
	core, err := strconv.Atoi(v[:idx])
	if err != nil {
		return fmt.Errorf("bad core index in %q", v)
	}
	*l = append(*l, progSpec{core: core, path: v[idx+1:]})
	return nil
}

func parseScenario(s string) (hetcc.Scenario, error) {
	switch strings.ToLower(s) {
	case "wcs", "worst":
		return hetcc.WCS, nil
	case "tcs", "typical":
		return hetcc.TCS, nil
	case "bcs", "best":
		return hetcc.BCS, nil
	default:
		return 0, fmt.Errorf("unknown scenario %q (want wcs, tcs, bcs)", s)
	}
}

func parseSolution(s string) (hetcc.Solution, error) {
	switch strings.ToLower(s) {
	case "disabled", "cache-disabled", "nocache":
		return hetcc.CacheDisabled, nil
	case "software", "sw":
		return hetcc.Software, nil
	case "proposed", "hw", "wrapper":
		return hetcc.Proposed, nil
	default:
		return 0, fmt.Errorf("unknown solution %q (want disabled, software, proposed)", s)
	}
}

func parsePlatform(s string) ([]platform.ProcessorSpec, error) {
	switch strings.ToLower(s) {
	case "ppc-arm", "pf2":
		return platform.PPCARm(), nil
	case "ppc-i486", "pf3":
		return platform.PPCI486(), nil
	case "arm-arm", "pf1":
		return platform.ARMPair(), nil
	default:
		return nil, fmt.Errorf("unknown platform %q (want ppc-arm, ppc-i486, arm-arm)", s)
	}
}

func parseLock(s string) (platform.LockKind, error) {
	switch strings.ToLower(s) {
	case "uncached-tas", "tas":
		return platform.LockUncachedTAS, nil
	case "hw-register", "register":
		return platform.LockHardwareRegister, nil
	case "bakery":
		return platform.LockBakery, nil
	case "cached-tas":
		return platform.LockCachedTAS, nil
	case "peterson":
		return platform.LockPeterson, nil
	default:
		return 0, fmt.Errorf("unknown lock %q", s)
	}
}

// printExplain renders the critical-path analysis: where every cycle of the
// last-retiring core went, and the transactions it spent the longest blocked
// on.
func printExplain(cp *span.CriticalPath) {
	if cp == nil {
		fmt.Println("\ncritical path: no span data collected")
		return
	}
	fmt.Printf("\ncritical path: core %d (%s), %d engine cycles\n", cp.Core, cp.CoreName, cp.TotalCycles)
	if cp.CrossCheckError != "" {
		fmt.Printf("WARNING: profile-ledger cross-check failed: %s\n", cp.CrossCheckError)
	} else {
		fmt.Printf("cross-check: attribution sums to the run total and every cause is within the profile ledger's bound\n")
	}
	attrT := stats.NewTable("Cycle attribution", "component", "cause", "cycles", "share")
	for _, a := range cp.Attribution {
		attrT.AddRow(a.Component, a.Cause, a.Cycles,
			fmt.Sprintf("%.1f%%", float64(a.Cycles)/float64(cp.TotalCycles)*100))
	}
	attrT.Render(os.Stdout)
	if len(cp.TopTransactions) > 0 {
		fmt.Println()
		txnT := stats.NewTable("Top blocking transactions", "txn", "component", "op", "addr", "submit", "complete", "retries", "blocked")
		for _, t := range cp.TopTransactions {
			txnT.AddRow(t.Txn, t.Component, t.Op, t.Addr, t.Submit, t.Complete, t.Retries, t.Cycles)
		}
		txnT.Render(os.Stdout)
	}
}

// printSharing renders the sharing-pattern summary: the class census, the
// top-N hot lines and the master communication matrix.
func printSharing(s *sharing.Summary, masterName func(int) string) {
	var classes []string
	for c := sharing.ClassPrivate; c <= sharing.ClassReadWrite; c++ {
		if n := s.ClassCounts[c.String()]; n > 0 {
			classes = append(classes, fmt.Sprintf("%s %d", c.String(), n))
		}
	}
	fmt.Printf("sharing classes: %s", strings.Join(classes, ", "))
	if s.FalseSharingLines > 0 {
		fmt.Printf(" (%d false-sharing candidates)", s.FalseSharingLines)
	}
	fmt.Println()
	fmt.Println()

	hot := s.HotLines(10)
	if len(hot) > 0 {
		hotT := stats.NewTable("Hot lines", "line", "class", "rd", "wr", "falseShare", "misses", "upgr", "wb", "word", "inval", "c2c", "ovr")
		for _, i := range hot {
			l := s.Lines[i]
			t := l.Traffic
			hotT.AddRow(l.Base, l.Class, l.Readers, l.Writers, l.FalseSharing,
				t.Misses, t.Upgrades, t.WriteBacks, t.WordOps, t.Invalidations, t.Supplies, t.SharedOverrides)
		}
		hotT.Render(os.Stdout)
		fmt.Println()
	}
	if len(s.Matrix) > 0 {
		mT := stats.NewTable("Communication matrix", "from", "to", "supplies", "drains", "invalidations", "converted")
		for _, c := range s.Matrix {
			mT.AddRow(masterName(c.From), masterName(c.To),
				c.Cell.Supplies, c.Cell.Drains, c.Cell.Invalidations, c.Cell.Converted)
		}
		mT.Render(os.Stdout)
		fmt.Println()
	}
}

// coreName labels profile lanes and folded-stack rows with the CPU names.
func coreName(p *platform.Platform) func(int) string {
	return func(i int) string {
		if i >= 0 && i < len(p.CPUs) {
			return p.CPUs[i].Name()
		}
		return fmt.Sprintf("core%d", i)
	}
}

func sumCounts(m map[string]uint64) uint64 {
	var total uint64
	for _, n := range m {
		total += n
	}
	return total
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetccsim:", err)
		os.Exit(2)
	}
}
