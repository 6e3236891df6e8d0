// Command experiments regenerates every table and figure of the paper's
// evaluation section (DATE 2004) from the simulator, printing the same
// rows/series the paper reports, and sweeps the timing model's calibrated
// constants to show which conclusions are robust to calibration.
//
// Usage:
//
//	experiments                 # every table and figure
//	experiments -fig 6          # one figure (5, 6, 7 or 8)
//	experiments -table 2        # one table (1, 2, 3 or 4)
//	experiments -sharing        # sharing-pattern characterisation of the scenarios
//	experiments -sweep isr      # one calibration sweep: isr, wrapper, drain, access, clock, cache, words, pipeline
//	experiments -sweep all      # every calibration sweep (PF2 only)
//	experiments -format csv     # machine-readable output
//	experiments -iterations 16  # longer runs
//	experiments -jobs 8         # fan the run matrix across 8 workers
//
// The figures and sweeps fan out across -jobs workers (default: all CPUs) on
// the deterministic batch executor (internal/runner); results are aggregated
// in sweep order, so stdout is byte-identical whatever the worker count.  The
// elapsed wall clock is reported on stderr.  Any coherence violation — a
// golden-model stale read, or an invariant-auditor violation under -audit —
// makes the command exit non-zero, and so does any bad flag value.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"hetcc"
	"hetcc/internal/platform"
	"hetcc/internal/sharing"
	"hetcc/internal/stats"
)

var (
	figFlag     = flag.Int("fig", 0, "regenerate only this figure (5-8); 0 = all")
	tableFlag   = flag.Int("table", 0, "regenerate only this table (1-4); 0 = all")
	format      = flag.String("format", "text", "output format: text, csv or md")
	iterations  = flag.Int("iterations", 0, "critical-section entries per task (0 = default)")
	seed        = flag.Uint64("seed", 0, "workload seed")
	verify      = flag.Bool("verify", true, "run the golden-model checker in every simulation")
	auditFlag   = flag.Bool("audit", false, "run the online invariant auditor in every simulation; violations exit non-zero")
	jobs        = flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers for the figures and sweeps")
	platFlag    = flag.String("platform", "pf2", "evaluation platform: pf2 (PowerPC755+ARM920T, the paper's) or pf3 (PowerPC755+Intel486)")
	reportFlag  = flag.String("report", "", "write a machine-readable JSON report of the regenerated figure points to this file")
	schedFlag   = flag.String("scheduler", "", "engine scheduling strategy: event or tick (default: the library default; figures are identical either way)")
	sharingFlag = flag.Bool("sharing", false, "characterise the sharing patterns of the three case-study scenarios under the proposed solution: per-line class census, false-sharing candidates and the master communication matrix")
	sweepFlag   = flag.String("sweep", "", "run a calibration sweep of the PF2 timing model instead of the tables and figures: isr, wrapper, drain, access, clock, cache, words, pipeline or all")
)

// figureReport is the -report document: every figure point regenerated this
// run, keyed by figure name, under a versioned schema.
type figureReport struct {
	Schema        string                   `json:"schema"`
	SchemaVersion int                      `json:"schema_version"`
	Platform      string                   `json:"platform"`
	Figures       map[string][]figurePoint `json:"figures"`
}

type figurePoint struct {
	Scenario        string  `json:"scenario"`
	ExecTime        int     `json:"exec_time,omitempty"`
	Lines           int     `json:"lines"`
	MissPenalty     int     `json:"miss_penalty,omitempty"`
	CyclesDisabled  uint64  `json:"cycles_disabled,omitempty"`
	CyclesSoftware  uint64  `json:"cycles_software"`
	CyclesProposed  uint64  `json:"cycles_proposed"`
	RatioSoftware   float64 `json:"ratio_software,omitempty"`
	RatioProposed   float64 `json:"ratio_proposed,omitempty"`
	RatioVsSoftware float64 `json:"ratio_vs_software,omitempty"`
	SpeedupPct      float64 `json:"speedup_pct"`
}

var report = figureReport{
	Schema:        "hetcc.experiments-report",
	SchemaVersion: 1,
	Figures:       make(map[string][]figurePoint),
}

func main() {
	flag.Parse()
	start := time.Now()
	out := os.Stdout
	opts := hetcc.FigureOptions{Iterations: *iterations, Seed: *seed, Verify: *verify, Audit: *auditFlag, Jobs: *jobs, Scheduler: *schedFlag}
	switch *platFlag {
	case "pf2", "":
		// the paper's measurement platform (default)
	case "pf3":
		// the paper predicts PF3 outperforms PF2 ("due to the absence of
		// an interrupt service routine")
		opts.Processors = platform.PPCI486()
	default:
		fatalIf(fmt.Errorf("unknown platform %q (want pf2 or pf3)", *platFlag))
	}

	switch *format {
	case "text", "csv", "md", "markdown":
	default:
		fatalIf(fmt.Errorf("unknown format %q (want text, csv or md)", *format))
	}
	var runSweeps []sweep
	if *sweepFlag != "" {
		if opts.Processors != nil {
			fatalIf(fmt.Errorf("-sweep edits the PF2 ARM920T spec; it cannot run with -platform %s", *platFlag))
		}
		var err error
		runSweeps, err = selectSweeps(*sweepFlag)
		fatalIf(err)
	}
	if *figFlag != 0 && (*figFlag < 5 || *figFlag > 8) {
		fatalIf(fmt.Errorf("-fig must be 5..8, got %d", *figFlag))
	}
	if *tableFlag != 0 && (*tableFlag < 1 || *tableFlag > 4) {
		fatalIf(fmt.Errorf("-table must be 1..4, got %d", *tableFlag))
	}
	runAll := *figFlag == 0 && *tableFlag == 0 && !*sharingFlag && *sweepFlag == ""
	// The report holds figure points only; open it before anything runs so
	// a bad path or an empty selection fails with nothing printed.
	var reportFile *os.File
	if *reportFlag != "" {
		if !runAll && *figFlag == 0 {
			fatalIf(fmt.Errorf("-report holds figure points, and this selection runs no figure (add -fig, or drop -table, -sharing and -sweep)"))
		}
		var err error
		reportFile, err = os.Create(*reportFlag)
		fatalIf(err)
	}
	if runAll || *tableFlag == 1 {
		table1(out)
	}
	if runAll || *tableFlag == 2 {
		fatalIf(table23(out, 2))
	}
	if runAll || *tableFlag == 3 {
		fatalIf(table23(out, 3))
	}
	if runAll || *tableFlag == 4 {
		table4(out)
	}
	if runAll || *figFlag == 5 {
		fatalIf(figure(out, 5, opts))
	}
	if runAll || *figFlag == 6 {
		fatalIf(figure(out, 6, opts))
	}
	if runAll || *figFlag == 7 {
		fatalIf(figure(out, 7, opts))
	}
	if runAll || *figFlag == 8 {
		fatalIf(figure8(out, opts))
	}
	if *sharingFlag {
		fatalIf(sharingPatterns(out, opts))
	}
	for _, sw := range runSweeps {
		fatalIf(runSweep(out, sw, opts))
	}
	if reportFile != nil {
		report.Platform = *platFlag
		enc := json.NewEncoder(reportFile)
		enc.SetIndent("", "  ")
		fatalIf(enc.Encode(report))
		fatalIf(reportFile.Close())
		fmt.Printf("figure report written to %s\n", *reportFlag)
	}
	// Stderr, not stdout: stdout must stay byte-identical across -jobs
	// values (the determinism contract callers diff against).
	fmt.Fprintf(os.Stderr, "experiments: done in %v (%d workers)\n", time.Since(start).Round(time.Millisecond), *jobs)
}

func render(w io.Writer, t *stats.Table) {
	switch *format {
	case "csv":
		t.RenderCSV(w)
	case "md", "markdown":
		t.RenderMarkdown(w)
	default:
		t.Render(w)
	}
	fmt.Fprintln(w)
}

func table1(w io.Writer) {
	t := stats.NewTable("Table 1: heterogeneous platform classes", "class", "description", "example")
	for _, row := range hetcc.Table1() {
		t.AddRow(row.Class, row.Description, row.Example)
	}
	render(w, t)
}

func table23(w io.Writer, n int) error {
	var broken, fixed hetcc.SequenceResult
	var err error
	var title string
	if n == 2 {
		broken, fixed, err = hetcc.Table2()
		title = "Table 2: MEI + MESI integration (P0=MESI, P1=MEI)"
	} else {
		broken, fixed, err = hetcc.Table3()
		title = "Table 3: MSI + MESI integration (P0=MSI, P1=MESI)"
	}
	if err != nil {
		return err
	}
	t := stats.NewTable(title, "seq", "operation", "P0 (no wrapper)", "P1 (no wrapper)", "P0 (wrapped)", "P1 (wrapped)")
	for i := range broken.Steps {
		t.AddRow(
			string(rune('a'+i)),
			broken.Steps[i].Op,
			broken.Steps[i].States[0], broken.Steps[i].States[1],
			fixed.Steps[i].States[0], fixed.Steps[i].States[1],
		)
	}
	render(w, t)
	fmt.Fprintf(w, "  without wrappers: stale read observed = %v (the paper's defect)\n", broken.StaleRead)
	fmt.Fprintf(w, "  with wrappers:    stale read observed = %v\n\n", fixed.StaleRead)
	return nil
}

func table4(w io.Writer) {
	info := hetcc.Table4()
	t := stats.NewTable("Table 4: simulation environment", "parameter", "value")
	t.AddRow("PowerPC755 clock", fmt.Sprintf("%d MHz", info.PowerPCClockMHz))
	t.AddRow("ARM920T clock", fmt.Sprintf("%d MHz", info.ARMClockMHz))
	t.AddRow("ASB clock", fmt.Sprintf("%d MHz", info.BusClockMHz))
	t.AddRow("memory access, single word", fmt.Sprintf("%d cycles", info.SingleWordCycles))
	t.AddRow("memory access, 8-word burst", fmt.Sprintf("%d cycles", info.BurstCycles))
	t.AddRow("cache line", fmt.Sprintf("%d bytes", info.LineBytes))
	render(w, t)
}

func figure(w io.Writer, n int, opts hetcc.FigureOptions) error {
	var pts []hetcc.RatioPoint
	var err error
	var title string
	switch n {
	case 5:
		pts, err = hetcc.Figure5(opts)
		title = "Figure 5: worst-case scenario (ratio of execution time vs cache-disabled)"
	case 6:
		pts, err = hetcc.Figure6(opts)
		title = "Figure 6: best-case scenario (ratio of execution time vs cache-disabled)"
	case 7:
		pts, err = hetcc.Figure7(opts)
		title = "Figure 7: typical-case scenario (ratio of execution time vs cache-disabled)"
	}
	if err != nil {
		return err
	}
	t := stats.NewTable(title, "exec_time", "lines", "software", "proposed", "speedup vs software %")
	key := fmt.Sprintf("figure%d", n)
	for _, p := range pts {
		t.AddRow(p.ExecTime, p.Lines, p.RatioSoftware, p.RatioProposed, fmt.Sprintf("%+.2f", p.SpeedupVsSoftwarePct))
		report.Figures[key] = append(report.Figures[key], figurePoint{
			Scenario:       p.Scenario.String(),
			ExecTime:       p.ExecTime,
			Lines:          p.Lines,
			CyclesDisabled: p.CyclesDisabled,
			CyclesSoftware: p.CyclesSoftware,
			CyclesProposed: p.CyclesProposed,
			RatioSoftware:  p.RatioSoftware,
			RatioProposed:  p.RatioProposed,
			SpeedupPct:     p.SpeedupVsSoftwarePct,
		})
	}
	render(w, t)
	return nil
}

func figure8(w io.Writer, opts hetcc.FigureOptions) error {
	pts, err := hetcc.Figure8(nil, opts)
	if err != nil {
		return err
	}
	t := stats.NewTable("Figure 8: execution time of proposed relative to software vs miss penalty", "scenario", "lines", "penalty", "ratio", "speedup %")
	for _, p := range pts {
		t.AddRow(p.Scenario, p.Lines, p.MissPenalty, p.RatioVsSoftware, fmt.Sprintf("%+.2f", p.SpeedupPct))
		report.Figures["figure8"] = append(report.Figures["figure8"], figurePoint{
			Scenario:        p.Scenario.String(),
			Lines:           p.Lines,
			MissPenalty:     p.MissPenalty,
			CyclesSoftware:  p.CyclesSoftware,
			CyclesProposed:  p.CyclesProposed,
			RatioVsSoftware: p.RatioVsSoftware,
			SpeedupPct:      p.SpeedupPct,
		})
	}
	render(w, t)
	return nil
}

// sharingPatterns runs the three case-study scenarios under the proposed
// solution with the sharing collector and prints the per-line class census
// and the master communication matrix — the workload-characterisation
// companion to the figures (EXPERIMENTS.md discusses how to read it).
func sharingPatterns(w io.Writer, opts hetcc.FigureOptions) error {
	procs := opts.Processors
	if len(procs) == 0 {
		procs = hetcc.DefaultProcessors()
	}
	scenarios := []hetcc.Scenario{hetcc.WCS, hetcc.BCS, hetcc.TCS}
	var specs []hetcc.BatchSpec
	for _, s := range scenarios {
		specs = append(specs, hetcc.BatchSpec{
			Label: fmt.Sprintf("sharing/%v", s),
			Config: hetcc.Config{
				Scenario:   s,
				Solution:   hetcc.Proposed,
				Processors: procs,
				Params:     hetcc.Params{Iterations: opts.Iterations, Seed: opts.Seed},
				Verify:     opts.Verify,
				Audit:      opts.Audit,
				Sharing:    true,
				Scheduler:  opts.Scheduler,
			},
		})
	}
	results := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: opts.Jobs})
	if err := hetcc.BatchFirstError(results); err != nil {
		return err
	}
	census := stats.NewTable("Sharing patterns: per-line class census (proposed solution)",
		"scenario", "lines", "private", "read-only", "prod-cons", "migratory", "read-write", "false-sharing")
	for i, s := range scenarios {
		sum := results[i].Result.Sharing
		if sum == nil {
			return fmt.Errorf("sharing: %v run produced no summary", s)
		}
		if bad := sum.Conserved(); bad != "" {
			return fmt.Errorf("sharing: %v conservation violated: %s", s, bad)
		}
		row := []any{s.String(), len(sum.Lines)}
		for cl := sharing.ClassPrivate; cl <= sharing.ClassReadWrite; cl++ {
			row = append(row, sum.ClassCounts[cl.String()])
		}
		row = append(row, sum.FalseSharingLines)
		census.AddRow(row...)
	}
	render(w, census)
	for i, s := range scenarios {
		sum := results[i].Result.Sharing
		t := stats.NewTable(fmt.Sprintf("Communication matrix: %v (from supplier/invalidator to consumer/victim)", s),
			"from", "to", "supplies", "drains", "invalidations", "converted")
		for _, m := range sum.Matrix {
			t.AddRow(masterLabel(procs, m.From), masterLabel(procs, m.To),
				m.Cell.Supplies, m.Cell.Drains, m.Cell.Invalidations, m.Cell.Converted)
		}
		render(w, t)
	}
	return nil
}

// masterLabel names bus master id for the matrix tables.
func masterLabel(procs []platform.ProcessorSpec, id int) string {
	if id >= 0 && id < len(procs) {
		return procs[id].Model
	}
	return fmt.Sprintf("master %d", id)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
