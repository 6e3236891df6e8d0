package main

import (
	"fmt"
	"io"
	"strings"

	"hetcc"
	"hetcc/internal/platform"
	"hetcc/internal/sharing"
	"hetcc/internal/stats"
)

// sweep varies one free parameter of the PF2 timing model — a constant the
// paper does not publish and EXPERIMENTS.md Appendix B documents as
// calibrated — and reports how the headline comparison (proposed vs
// software, WCS and BCS at 32 lines, exec_time 1) responds.  It shows which
// of the paper's conclusions are robust to calibration.
type sweep struct {
	name  string
	title string
	x     string // the first column's heading
	rows  []sweepRow
	set   func(c *hetcc.Config, v int)
	// sharing attaches the sharing collector to the proposed runs (it never
	// changes cycle counts) and adds the WCS sharing-profile columns.
	sharing bool
}

// sweepRow is one x-position of a sweep: its label and the value set.
type sweepRow struct {
	label string
	v     int
}

func values(format string, vs ...int) []sweepRow {
	rows := make([]sweepRow, len(vs))
	for i, v := range vs {
		rows[i] = sweepRow{fmt.Sprintf(format, v), v}
	}
	return rows
}

// sweeps in -sweep all order.  Index 1 of platform.PPCARm() is the ARM920T.
var sweeps = []sweep{
	{name: "isr", title: "Sensitivity: ARM920T interrupt response time (CPU cycles; default 4)", x: "response",
		rows: values("%d", 0, 2, 4, 8, 16, 32, 64),
		set:  func(c *hetcc.Config, v int) { c.Processors[1].InterruptResponse = v }},
	// The wrapper's conversion cost is charged only under the proposed
	// strategy, so it eats directly into the proposed solution's advantage.
	{name: "wrapper", title: "Sensitivity: wrapper conversion latency per transaction (bus cycles; default 0)", x: "latency",
		rows: values("%d", 0, 1, 2, 4, 8),
		set: func(c *hetcc.Config, v int) {
			for i := range c.Processors {
				c.Processors[i].WrapperLatency = v
			}
		}},
	{name: "drain", title: "Sensitivity: software drain-loop overhead per line (CPU cycles; default 12)", x: "overhead",
		rows: values("%d", 4, 8, 12, 16, 24),
		set: func(c *hetcc.Config, v int) {
			for i := range c.Processors {
				c.Processors[i].CacheOpOverhead = v
			}
		}},
	{name: "access", title: "Sensitivity: per-access instruction overhead (CPU cycles; default 3)", x: "overhead",
		rows: values("%d", 0, 1, 3, 6, 10),
		set: func(c *hetcc.Config, v int) {
			for i := range c.Processors {
				c.Processors[i].AccessOverhead = v
			}
		}},
	{name: "clock", title: "Sensitivity: ARM920T clock ratio (of the 100 MHz engine; default 1/2)", x: "ratio",
		rows: values("1/%d", 1, 2, 4),
		set:  func(c *hetcc.Config, v int) { c.Processors[1].ClockDiv = uint64(v) }},
	{name: "cache", title: "Sensitivity: ARM920T data-cache size (default 16KB)", x: "size",
		rows: values("%dKB", 4, 8, 16, 32),
		set:  func(c *hetcc.Config, v int) { c.Processors[1].Cache.SizeBytes = v * 1024 }},
	// Invalidations and cache-to-cache drains are per-line costs, so the
	// proposed solution's advantage shifts as the touched fraction of each
	// line shrinks while the line-granular coherence traffic stays.
	{name: "words", title: "Sensitivity: words touched per 8-word line (default 8), with the WCS sharing profile", x: "words",
		rows:    values("%d", 1, 2, 4, 8),
		set:     func(c *hetcc.Config, v int) { c.Params.WordsPerLine = v },
		sharing: true},
	{name: "pipeline", title: "Sensitivity: bus pipelining", x: "bus",
		rows: []sweepRow{{"ASB (plain)", 0}, {"AHB-style (pipelined)", 1}},
		set:  func(c *hetcc.Config, v int) { c.PipelinedBus = v == 1 }},
}

// selectSweeps resolves -sweep: one sweep by name, or all of them.
func selectSweeps(name string) ([]sweep, error) {
	if name == "all" {
		return sweeps, nil
	}
	names := make([]string, len(sweeps))
	for i, sw := range sweeps {
		if sw.name == name {
			return sweeps[i : i+1], nil
		}
		names[i] = sw.name
	}
	return nil, fmt.Errorf("unknown sweep %q (want %s or all)", name, strings.Join(names, ", "))
}

// runSweep measures every row's WCS and BCS speedup of the proposed solution
// over software, batching rows × {WCS, BCS} × {software, proposed} across the
// worker pool, and renders the sweep's table.
func runSweep(w io.Writer, sw sweep, opts hetcc.FigureOptions) error {
	var specs []hetcc.BatchSpec
	for _, r := range sw.rows {
		for _, s := range []hetcc.Scenario{hetcc.WCS, hetcc.BCS} {
			for _, sol := range []hetcc.Solution{hetcc.Software, hetcc.Proposed} {
				cfg := hetcc.Config{
					Scenario:   s,
					Solution:   sol,
					Processors: platform.PPCARm(),
					Params:     hetcc.Params{Lines: 32, ExecTime: 1, Iterations: opts.Iterations, Seed: opts.Seed},
					Verify:     opts.Verify,
					Audit:      opts.Audit,
					Sharing:    sw.sharing && sol == hetcc.Proposed,
					Scheduler:  opts.Scheduler,
				}
				sw.set(&cfg, r.v)
				specs = append(specs, hetcc.BatchSpec{Label: fmt.Sprintf("%s=%s/%v/%v", sw.name, r.label, s, sol), Config: cfg})
			}
		}
	}
	results := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: opts.Jobs})
	if err := hetcc.BatchFirstError(results); err != nil {
		return err
	}
	speedup := func(software, proposed hetcc.BatchResult) string {
		return fmt.Sprintf("%+.2f", stats.SpeedupPct(proposed.Result.Cycles, software.Result.Cycles))
	}
	cols := []string{sw.x, "WCS speedup %", "BCS speedup %"}
	if sw.sharing {
		cols = append(cols, "WCS classes", "WCS invalidations", "WCS c2c drains")
	}
	t := stats.NewTable(sw.title, cols...)
	for i, r := range sw.rows {
		res := results[4*i : 4*i+4] // WCS software, WCS proposed, BCS software, BCS proposed
		row := []any{r.label, speedup(res[0], res[1]), speedup(res[2], res[3])}
		if sw.sharing {
			sum := res[1].Result.Sharing
			if sum == nil {
				return fmt.Errorf("%s: WCS proposed run produced no sharing summary", res[1].Label)
			}
			if bad := sum.Conserved(); bad != "" {
				return fmt.Errorf("%s: sharing conservation violated: %s", res[1].Label, bad)
			}
			row = append(row, censusString(sum), sum.Totals.Invalidations, sum.Totals.Drains)
		}
		t.AddRow(row...)
	}
	render(w, t)
	return nil
}

// censusString compacts a class census into "32 migratory, 1 private" form.
func censusString(s *sharing.Summary) string {
	var parts []string
	for cl := sharing.ClassPrivate; cl <= sharing.ClassReadWrite; cl++ {
		if n := s.ClassCounts[cl.String()]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, cl))
		}
	}
	if s.FalseSharingLines > 0 {
		parts = append(parts, fmt.Sprintf("%d false-sharing", s.FalseSharingLines))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}
