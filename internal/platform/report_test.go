package platform_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hetcc/internal/chrometrace"
	. "hetcc/internal/platform"
	"hetcc/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden report file")

// runWCSReport runs a small deterministic WCS simulation with metrics,
// auditing and profiling on and returns the platform, the result, and the
// rendered report.
func runWCSReport(t *testing.T) (*Platform, Result, Report) {
	t.Helper()
	p, err := Build(Config{
		Processors:    PPCARm(),
		Solution:      Proposed,
		Lock:          LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
		Verify:        true,
		Metrics:       true,
		MetricsWindow: 5_000,
		Audit:         true,
		Profile:       true,
		Spans:         true,
		Sharing:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := workload.Params{Lines: 8, ExecTime: 1, Iterations: 4, WordsPerLine: 8}
	progs, err := workload.Programs(workload.WCS, params, Proposed, len(p.CPUs))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadPrograms(progs); err != nil {
		t.Fatal(err)
	}
	res := p.Run(5_000_000)
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	// A pinned manifest (no live toolchain probing) keeps the golden file
	// machine-independent.
	p.Manifest = &Manifest{
		SchemaVersion: ReportSchemaVersion,
		GoVersion:     "go0.0-golden",
		Module:        "hetcc",
		ModuleVersion: "(golden)",
		Flags:         []string{"-scenario", "wcs"},
	}
	return p, res, p.Report(res, "wcs")
}

// TestReportGolden pins the full report for a small WCS run.  The simulator
// is deterministic and the report carries no wall-clock data, so the JSON
// must match byte-for-byte.  Refresh with: go test ./internal/platform -run
// TestReportGolden -update
func TestReportGolden(t *testing.T) {
	_, _, rep := runWCSReport(t)
	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "wcs_report.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("report drifted from golden file (re-run with -update if intended)\ngot:\n%s", buf.String())
	}
}

// TestReportRoundTrip checks the report unmarshals, carries the schema
// version, and reproduces the Result counters exactly.
func TestReportRoundTrip(t *testing.T) {
	p, res, rep := runWCSReport(t)
	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not unmarshal: %v", err)
	}
	if back.Schema != ReportSchema || back.SchemaVersion != ReportSchemaVersion {
		t.Fatalf("schema %q v%d, want %q v%d", back.Schema, back.SchemaVersion, ReportSchema, ReportSchemaVersion)
	}
	if back.Cycles != res.Cycles {
		t.Fatalf("cycles %d != %d", back.Cycles, res.Cycles)
	}
	if back.Bus != res.Bus {
		t.Fatalf("bus stats drifted:\n%+v\n%+v", back.Bus, res.Bus)
	}
	if len(back.Cores) != len(p.CPUs) {
		t.Fatalf("%d cores, want %d", len(back.Cores), len(p.CPUs))
	}
	for i, cr := range back.Cores {
		if cr.CPU != res.CPU[i] {
			t.Fatalf("core %d cpu stats drifted", i)
		}
		if cr.Cache != res.Cache[i] {
			t.Fatalf("core %d cache stats drifted", i)
		}
		if cr.WrapperConversions != res.WrapperConv[i] {
			t.Fatalf("core %d conversions drifted", i)
		}
		if sl := p.SnoopLogics[i]; sl != nil {
			if cr.Snoop == nil || *cr.Snoop != res.Snoop[i] {
				t.Fatalf("core %d snoop stats drifted", i)
			}
		} else if cr.Snoop != nil {
			t.Fatalf("core %d has snoop stats but no snoop logic", i)
		}
	}
	if !back.Coherent {
		t.Fatal("proposed run reported incoherent")
	}
}

// TestReportFieldsStable guards the report's consumers.  Each row names one
// top-level section, checks that its keys are still present under their old
// names and checks its content.  Every key the report carries must belong to
// a row, so a new section comes with a row of its own.
func TestReportFieldsStable(t *testing.T) {
	_, res, rep := runWCSReport(t)
	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		section string
		keys    []string
		check   func(t *testing.T)
	}{
		{
			// The keys no observer owns, with the schema identification.
			section: "run",
			keys: []string{
				"schema", "schema_version", "scenario", "solution", "platform",
				"effective_protocol", "cycles", "bus_cycles", "stop_reason",
				"deadlocked", "coherent", "bus", "cores",
			},
			check: func(t *testing.T) {
				var schema string
				if err := json.Unmarshal(raw["schema"], &schema); err != nil || schema != ReportSchema {
					t.Errorf("schema = %q (%v), want %q", schema, err, ReportSchema)
				}
				var version int
				if err := json.Unmarshal(raw["schema_version"], &version); err != nil || version != ReportSchemaVersion {
					t.Errorf("schema_version = %d (%v), want %d", version, err, ReportSchemaVersion)
				}
			},
		},
		{
			// The scheduler telemetry rides the metrics section: an
			// event-scheduled metrics run carries sched.*.
			section: "metrics",
			keys:    []string{"metrics"},
			check: func(t *testing.T) {
				if rep.Metrics == nil {
					t.Fatal("metrics missing from a metrics-enabled report")
				}
				if _, ok := rep.Metrics.Counters["sched.wakes"]; !ok {
					t.Errorf("sched.wakes counter missing from metrics: %v", rep.Metrics.Counters)
				}
				if _, ok := rep.Metrics.Histograms["sched.skip.cycles"]; !ok {
					t.Error("sched.skip.cycles histogram missing from metrics")
				}
			},
		},
		{
			// The auditor counts the records it consumes by kind; the bus
			// section counts the same completions and retries.
			// TestReportAuditContent checks the rest of the section.
			section: "audit",
			keys:    []string{"audit"},
			check: func(t *testing.T) {
				ev := rep.Audit.Events
				if ev["bus-complete"] != rep.Bus.Completed || ev["retry"] != rep.Bus.Aborted {
					t.Errorf("events_by_kind %v disagrees with the bus: %d completed, %d aborted",
						ev, rep.Bus.Completed, rep.Bus.Aborted)
				}
			},
		},
		{
			// The profile section upholds the conservation invariant
			// against the cores section of the same report.
			section: "profile",
			keys:    []string{"profile"},
			check: func(t *testing.T) {
				if rep.Profile == nil || len(rep.Profile.Cores) != len(rep.Cores) {
					t.Fatalf("profile %+v does not cover the report's %d cores", rep.Profile, len(rep.Cores))
				}
				for i, cs := range rep.Profile.Cores {
					var sum uint64
					for _, n := range cs.Causes {
						sum += n
					}
					if sum != rep.Cores[i].CPU.StallCycles || sum != cs.StallCycles {
						t.Errorf("core %d: causes sum %d, profile stall_cycles %d, cpu stall_cycles %d",
							i, sum, cs.StallCycles, rep.Cores[i].CPU.StallCycles)
					}
				}
				if len(res.StallSpans) == 0 {
					t.Error("no stall spans captured on a profiled run")
				}
			},
		},
		{
			// The critical path partitions the run's cycles exactly and
			// passes the profile-ledger cross-check.
			section: "critical_path",
			keys:    []string{"critical_path"},
			check: func(t *testing.T) {
				cp := rep.CriticalPath
				if cp == nil {
					t.Fatal("critical_path missing from a spans-enabled report")
				}
				if cp.CrossCheckError != "" {
					t.Fatalf("critical path failed the profile-ledger cross-check: %s", cp.CrossCheckError)
				}
				if cp.TotalCycles != res.Cycles || cp.CyclesAttributed() != res.Cycles {
					t.Fatalf("critical path attributes %d of %d cycles (reports %d total)",
						cp.CyclesAttributed(), res.Cycles, cp.TotalCycles)
				}
				if len(cp.TopTransactions) == 0 {
					t.Error("no top blocking transactions on a contended WCS run")
				}
			},
		},
		{
			// The cohort partition is conserved against the run's cycle
			// count.
			section: "cohorts",
			keys:    []string{"cohorts"},
			check: func(t *testing.T) {
				co := rep.Cohorts
				if co == nil {
					t.Fatal("cohorts missing from a spans-enabled report")
				}
				if !co.Conserved() {
					t.Fatalf("cohort partition not conserved: %+v", co)
				}
				if co.TotalCycles != res.Cycles {
					t.Fatalf("cohorts partition %d cycles, run took %d", co.TotalCycles, res.Cycles)
				}
				if rep.CriticalPath != nil && co.Anchor != rep.CriticalPath.Core {
					t.Fatalf("cohort anchor %d != critical-path core %d", co.Anchor, rep.CriticalPath.Core)
				}
				if len(co.Cohorts) == 0 {
					t.Error("no cohorts on a contended WCS run")
				}
			},
		},
		{
			// The sharing section is conserved against its own event-stream
			// totals with every touched line in exactly one class.
			section: "sharing",
			keys:    []string{"sharing"},
			check: func(t *testing.T) {
				s := rep.Sharing
				if s == nil {
					t.Fatal("sharing summary missing from a sharing-enabled report")
				}
				if bad := s.Conserved(); bad != "" {
					t.Fatalf("sharing conservation violated: %s", bad)
				}
				if s.Masters != len(rep.Cores) {
					t.Fatalf("sharing tracks %d masters, platform has %d cores", s.Masters, len(rep.Cores))
				}
				if len(s.Lines) == 0 || len(s.Matrix) == 0 || len(s.Heatmap.Windows) == 0 {
					t.Fatalf("sharing summary empty on a contended WCS run: %d lines, %d cells, %d windows",
						len(s.Lines), len(s.Matrix), len(s.Heatmap.Windows))
				}
				if res.Sharing == nil || res.Sharing.Totals != s.Totals {
					t.Fatal("Result.Sharing and report sharing disagree")
				}
			},
		},
		{
			// The manifest carries exactly what runWCSReport pinned, through
			// a ReadReport round trip that keeps the other sections too.
			section: "manifest",
			keys:    []string{"manifest"},
			check: func(t *testing.T) {
				m := rep.Manifest
				if m == nil || m.SchemaVersion != ReportSchemaVersion || m.GoVersion != "go0.0-golden" {
					t.Fatalf("manifest not stamped as pinned: %+v", m)
				}
				back, err := ReadReport(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("ReadReport rejected its own output: %v", err)
				}
				if back.Cycles != res.Cycles || !back.Cohorts.Conserved() {
					t.Fatalf("round-tripped report drifted: %d cycles, conserved=%v", back.Cycles, back.Cohorts.Conserved())
				}
				if diff := m.Diff(back.Manifest); len(diff) != 0 {
					t.Fatalf("manifest drifted through the round trip: %v", diff)
				}
			},
		},
	}
	owned := map[string]bool{}
	for _, row := range rows {
		t.Run(row.section, func(t *testing.T) {
			for _, f := range row.keys {
				owned[f] = true
				if _, ok := raw[f]; !ok {
					t.Errorf("field %q missing from the report", f)
				}
			}
			row.check(t)
		})
	}
	for f := range raw {
		if !owned[f] {
			t.Errorf("report key %q belongs to no row", f)
		}
	}
}

// TestReadReportRejects covers ReadReport's validation: wrong schema name and
// out-of-range schema versions fail; every historical version is accepted.
func TestReadReportRejects(t *testing.T) {
	enc := func(schema string, version int) string {
		b, _ := json.Marshal(Report{Schema: schema, SchemaVersion: version})
		return string(b)
	}
	if _, err := ReadReport(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ReadReport(bytes.NewReader([]byte(enc("hetcc.other", 5)))); err == nil {
		t.Error("wrong schema name accepted")
	}
	if _, err := ReadReport(bytes.NewReader([]byte(enc(ReportSchema, ReportSchemaVersion+1)))); err == nil {
		t.Error("future schema version accepted")
	}
	if _, err := ReadReport(bytes.NewReader([]byte(enc(ReportSchema, 0)))); err == nil {
		t.Error("schema version 0 accepted")
	}
	for v := 1; v <= ReportSchemaVersion; v++ {
		if _, err := ReadReport(bytes.NewReader([]byte(enc(ReportSchema, v)))); err != nil {
			t.Errorf("historical schema version %d rejected: %v", v, err)
		}
	}
}

// TestReadReportAcceptsUnknownSection: a section added after this reader was
// built is skipped, not an error, so adding a section keeps the schema
// version.
func TestReadReportAcceptsUnknownSection(t *testing.T) {
	in := fmt.Sprintf(`{"schema":%q,"schema_version":%d,"cycles":7,"future_section":{"counts":[1,2]},"sharing":null}`,
		ReportSchema, ReportSchemaVersion)
	rep, err := ReadReport(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatalf("report with an unknown section rejected: %v", err)
	}
	if rep.Cycles != 7 || rep.Sharing != nil {
		t.Fatalf("known fields misread: cycles %d, sharing %v", rep.Cycles, rep.Sharing)
	}
}

// TestReportAuditContent checks the audit section of the report: zero
// violations on the proposed solution, per-core reachable state sets within
// the MEI reduction, and populated per-line timelines.
func TestReportAuditContent(t *testing.T) {
	_, res, rep := runWCSReport(t)
	if rep.Audit == nil {
		t.Fatal("audit summary missing from report")
	}
	a := rep.Audit
	if a.ViolationCount != 0 || len(a.Violations) != 0 {
		t.Fatalf("invariant violations on the proposed solution: %d %v", a.ViolationCount, a.Violations)
	}
	if len(a.Reachable) != 2 {
		t.Fatalf("reachable sets for %d cores, want 2", len(a.Reachable))
	}
	for core, states := range a.Reachable {
		for _, s := range states {
			if s == "S" || s == "O" {
				t.Errorf("core %d reached state %s under MEI reduction", core, s)
			}
		}
	}
	if a.TransitionCount == 0 || len(a.Lines) == 0 {
		t.Fatalf("no per-line timelines accumulated: %d transitions, %d lines", a.TransitionCount, len(a.Lines))
	}
	if len(a.Events) == 0 || a.Events["state-change"] == 0 {
		t.Fatalf("events-by-kind not populated: %v", a.Events)
	}
	if res.Audit == nil || res.Audit.ViolationCount != a.ViolationCount {
		t.Fatal("Result.Audit and report audit disagree")
	}
}

// TestReportMetricsContent checks the acceptance-criteria content: the three
// headline histograms populated with non-zero quantiles, a multi-window
// bus-utilization series, and bus-tenure lanes inside the run.
func TestReportMetricsContent(t *testing.T) {
	p, res, rep := runWCSReport(t)
	if rep.Metrics == nil {
		t.Fatal("metrics missing from report")
	}
	for _, name := range []string{"bus.grant.wait.buscycles", "cache.miss.buscycles", "lock.acquire.enginecycles"} {
		h, ok := rep.Metrics.Histograms[name]
		if !ok {
			t.Fatalf("histogram %q missing (have %v)", name, rep.Metrics.Histograms)
		}
		if h.Count == 0 || h.P50 <= 0 || h.P95 <= 0 || h.P99 <= 0 {
			t.Fatalf("histogram %q not populated: %+v", name, h)
		}
	}
	util, ok := rep.Metrics.Series["bus.utilization"]
	if !ok || len(util.Points) < 2 {
		t.Fatalf("bus.utilization has %d windows, want >= 2", len(util.Points))
	}
	for _, pt := range util.Points {
		if pt.Value < 0 || pt.Value > 1.5 {
			t.Fatalf("utilization %v out of range at cycle %d", pt.Value, pt.Cycle)
		}
	}
	var last *chrometrace.Event
	for _, e := range chrometrace.FromTxns(p.Spans(), BusClockDiv, res.Cycles, p.MasterName) {
		if e.Ph == "X" && e.Pid == chrometrace.PidBus {
			e := e
			last = &e
		}
	}
	if last == nil {
		t.Fatal("no bus tenure lanes drawn from the span collector")
	}
	end := (last.Ts + *last.Dur) * chrometrace.EngineCyclesPerMicrosecond
	if *last.Dur <= 0 || end > float64(res.Cycles)+1e-6 {
		t.Fatalf("tenure span out of range: %+v (run %d cycles)", last, res.Cycles)
	}
}
