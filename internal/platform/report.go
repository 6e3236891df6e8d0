package platform

import (
	"encoding/json"
	"fmt"
	"io"

	"hetcc/internal/audit"
	"hetcc/internal/bus"
	"hetcc/internal/cache"
	"hetcc/internal/cpu"
	"hetcc/internal/metrics"
	"hetcc/internal/profile"
	"hetcc/internal/sharing"
	"hetcc/internal/snooplogic"
	"hetcc/internal/span"
)

// ReportSchema identifies the machine-readable run-report format; consumers
// should check it (and ReportSchemaVersion) before interpreting the rest.
const ReportSchema = "hetcc.run-report"

// ReportSchemaVersion is bumped on an incompatible change to Report: a
// field removed, renamed or retyped, or a value whose meaning changes.
// Adding an omitempty top-level section is compatible and keeps the
// version: a reader treats a missing section as nil, and encoding/json
// ignores keys it does not know, so old and new readers both accept the
// report.
const ReportSchemaVersion = 6

// Report is the machine-readable summary of one simulation run, written by
// the -report flag of cmd/hetccsim.  It is deliberately free of wall-clock
// timestamps so identical runs produce byte-identical reports (golden-file
// tests rely on this).
type Report struct {
	Schema        string `json:"schema"`
	SchemaVersion int    `json:"schema_version"`

	// Scenario and Solution record what was run.
	Scenario string `json:"scenario,omitempty"`
	Solution string `json:"solution"`
	// Platform lists the processor models in bus-priority order.
	Platform []string `json:"platform"`
	// EffectiveProtocol is the reduced protocol the system behaves as.
	EffectiveProtocol string `json:"effective_protocol"`

	// Cycles is the engine cycle count at termination; BusCycles the bus
	// clock's count.
	Cycles     uint64 `json:"cycles"`
	BusCycles  uint64 `json:"bus_cycles"`
	StopReason string `json:"stop_reason"`
	Error      string `json:"error,omitempty"`
	Deadlocked bool   `json:"deadlocked"`
	Coherent   bool   `json:"coherent"`

	Violations []string `json:"violations,omitempty"`
	Races      []string `json:"races,omitempty"`

	Bus   bus.Stats    `json:"bus"`
	Cores []CoreReport `json:"cores"`

	Sections

	// Manifest records the run's provenance: toolchain, module build, CLI
	// flags and seed.  Nil when the producer stamped none (the batch runner
	// stamps only deterministic fields so its digests stay
	// machine-independent).
	Manifest *Manifest `json:"manifest,omitempty"`
}

// Sections holds the report sections the observers own, one field per
// section.  Result and Report both embed it, so a new observer adds its
// section here once.  Each section is nil (or zero) when its observer was
// off, and omitempty, so adding one keeps ReportSchemaVersion.
type Sections struct {
	// Metrics is the registry snapshot: counters, gauges, histogram
	// summaries (p50/p95/p99) and the sampled time series (Config.Metrics).
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// Audit is the invariant auditor's summary: events by kind, violations,
	// observed reachable states per core and per-line transition counts
	// (Config.Audit).
	Audit *audit.Summary `json:"audit,omitempty"`
	// Profile is the per-core stall-cause ledger summary (Config.Profile).
	// Per core, the causes sum to the core's stall_cycles exactly.
	Profile *profile.Summary `json:"profile,omitempty"`
	// TraceDropped counts events evicted from the bounded trace ring
	// (Config.TraceCap).  Non-zero means trace-derived views (Chrome-trace
	// log lane, -trace output) reflect only the retained tail of the run.
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
	// CriticalPath is the causal-span critical-path analysis (Config.Spans):
	// the last-retiring core's timeline charged to (component, cause)
	// pairs, summing to Cycles exactly and cross-checked against the
	// profile ledger.  The transaction records and causal edges behind it
	// are on Platform.Spans().
	CriticalPath *span.CriticalPath `json:"critical_path,omitempty"`
	// Cohorts is the transaction-cohort partition of the critical core's
	// timeline (Config.Spans): execute + unlinked + per-(master, op, line)
	// blocked cycles sum to Cycles exactly, so two reports subtract into an
	// exact per-cohort delta (package delta).
	Cohorts *span.CohortSummary `json:"cohorts,omitempty"`
	// Sharing is the sharing-pattern summary (Config.Sharing): per-line
	// lifetime classifications with false-sharing candidates, the master
	// communication matrix and the windowed address heatmap.
	Sharing *sharing.Summary `json:"sharing,omitempty"`
}

// CoreReport is the per-processor slice of a Report.
type CoreReport struct {
	Name               string            `json:"name"`
	CPU                cpu.Stats         `json:"cpu"`
	Cache              cache.Stats       `json:"cache"`
	Snoop              *snooplogic.Stats `json:"snoop,omitempty"`
	WrapperConversions uint64            `json:"wrapper_conversions"`
}

// Report builds the machine-readable summary of res.  scenario labels the
// workload (may be empty).
func (p *Platform) Report(res Result, scenario string) Report {
	rep := Report{
		Schema:            ReportSchema,
		SchemaVersion:     ReportSchemaVersion,
		Scenario:          scenario,
		Solution:          p.Config.Solution.String(),
		EffectiveProtocol: p.Integration.Effective.String(),
		Cycles:            res.Cycles,
		BusCycles:         p.Bus.Cycle(),
		StopReason:        res.StopReason,
		Deadlocked:        res.Deadlocked(),
		Coherent:          res.Coherent(),
		Bus:               res.Bus,
		Sections:          res.Sections,
		Manifest:          p.Manifest,
	}
	if res.Err != nil {
		rep.Error = res.Err.Error()
	}
	for _, v := range res.Violations {
		rep.Violations = append(rep.Violations, v.String())
	}
	for _, r := range res.Races {
		rep.Races = append(rep.Races, r.String())
	}
	for i, spec := range p.Config.Processors {
		cr := CoreReport{Name: spec.Model}
		if i < len(res.CPU) {
			cr.CPU = res.CPU[i]
		}
		if i < len(res.Cache) {
			cr.Cache = res.Cache[i]
		}
		if p.SnoopLogics[i] != nil && i < len(res.Snoop) {
			s := res.Snoop[i]
			cr.Snoop = &s
		}
		if i < len(res.WrapperConv) {
			cr.WrapperConversions = res.WrapperConv[i]
		}
		rep.Platform = append(rep.Platform, spec.Model)
		rep.Cores = append(rep.Cores, cr)
	}
	return rep
}

// WriteReport JSON-encodes rep to w, indented for human inspection.
func WriteReport(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

// ReadReport decodes a run report written by WriteReport, accepting any
// schema version up to the current one.  Older reports simply lack the later
// sections, and sections this build does not know are skipped, so a freshly
// built binary can explain a delta against a baseline recorded by another.
func ReadReport(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return rep, fmt.Errorf("report: %w", err)
	}
	if rep.Schema != ReportSchema {
		return rep, fmt.Errorf("report: schema %q, want %q", rep.Schema, ReportSchema)
	}
	if rep.SchemaVersion < 1 || rep.SchemaVersion > ReportSchemaVersion {
		return rep, fmt.Errorf("report: schema version %d outside the supported range 1..%d", rep.SchemaVersion, ReportSchemaVersion)
	}
	return rep, nil
}
