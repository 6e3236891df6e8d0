package delta

import (
	"strings"
	"testing"

	"hetcc/internal/platform"
	"hetcc/internal/profile"
	"hetcc/internal/span"
)

// TestCompareTotalsOnly: with no attribution evidence the comparison degrades
// to a bare, still-conserved total delta.
func TestCompareTotalsOnly(t *testing.T) {
	e := Compare(Run{Name: "a", Cycles: 100}, Run{Name: "b", Cycles: 130})
	if e.Source != SourceTotalsOnly || e.Delta != 30 {
		t.Fatalf("source %q delta %d, want totals-only/+30", e.Source, e.Delta)
	}
	if !e.Conserved() {
		t.Fatal("totals-only explanation not conserved")
	}
	if len(e.Causes) != 0 || e.HasCohorts || e.CrossCheckError != "" {
		t.Fatalf("unexpected layers: %+v", e)
	}
	if e.Dominant() != nil {
		t.Fatal("dominant cause from no evidence")
	}
}

// TestCompareCriticalPath: two exact attributions subtract into an exact
// per-(component, cause) delta with no residual entry.
func TestCompareCriticalPath(t *testing.T) {
	oldRun := Run{
		Name: "old", Cycles: 100,
		Attribution: []span.Attribution{
			{Component: "ppc", Cause: "execute", Cycles: 60},
			{Component: "arm", Cause: "refill", Cycles: 30},
			{Component: "bus", Cause: "arb-wait", Cycles: 10},
		},
	}
	newRun := Run{
		Name: "new", Cycles: 150,
		Attribution: []span.Attribution{
			{Component: "ppc", Cause: "execute", Cycles: 60},
			{Component: "arm", Cause: "refill", Cycles: 80},
			{Component: "bus", Cause: "retry-backoff", Cycles: 10},
		},
	}
	e := Compare(oldRun, newRun)
	if e.Source != SourceCriticalPath {
		t.Fatalf("source %q", e.Source)
	}
	if !e.Conserved() || e.CrossCheckError != "" {
		t.Fatalf("not conserved: %+v", e)
	}
	// Sorted by |delta|: refill +50 first.
	if e.Causes[0].Cause != "refill" || e.Causes[0].Delta != 50 {
		t.Fatalf("top cause %+v", e.Causes[0])
	}
	d := e.Dominant()
	if d == nil || d.Cause != "refill" {
		t.Fatalf("dominant %+v, want refill", d)
	}
	// arb-wait vanished (-10), retry-backoff appeared (+10); both reported.
	byCause := map[string]int64{}
	for _, c := range e.Causes {
		byCause[c.Cause] += c.Delta
	}
	if byCause["arb-wait"] != -10 || byCause["retry-backoff"] != 10 || byCause["execute"] != 0 {
		t.Fatalf("cause deltas wrong: %v", byCause)
	}
}

// TestCompareCriticalPathRejectsNonConserved: an attribution that does not
// partition its run's cycles must not be trusted — the comparison falls back
// and flags the inconsistency.
func TestCompareCriticalPathRejectsNonConserved(t *testing.T) {
	bad := Run{Name: "bad", Cycles: 100,
		Attribution: []span.Attribution{{Component: "x", Cause: "refill", Cycles: 7}}}
	e := Compare(bad, bad)
	if e.Source == SourceCriticalPath {
		t.Fatal("non-conserved attribution accepted as critical-path source")
	}
	if e.CrossCheckError == "" {
		t.Fatal("inconsistency not surfaced")
	}
}

// TestCompareStallLedger: ledger mode conserves via an explicit
// execute/overlap residual, and per-cause entries match the ledgers.
func TestCompareStallLedger(t *testing.T) {
	oldRun := FromLedger("old", 1000, []profile.CoreSummary{
		{Core: 0, StallCycles: 300, Causes: map[string]uint64{"refill": 200, "arb-wait": 100}},
		{Core: 1, StallCycles: 50, Causes: map[string]uint64{"lock-spin": 50}},
	})
	newRun := FromLedger("new", 1400, []profile.CoreSummary{
		{Core: 0, StallCycles: 600, Causes: map[string]uint64{"refill": 500, "arb-wait": 100}},
		{Core: 1, StallCycles: 70, Causes: map[string]uint64{"lock-spin": 70}},
	})
	e := Compare(oldRun, newRun)
	if e.Source != SourceStallLedger {
		t.Fatalf("source %q", e.Source)
	}
	if !e.Conserved() || e.CrossCheckError != "" {
		t.Fatalf("ledger explanation not conserved: %+v", e)
	}
	// refill +300, lock-spin +20, arb-wait 0 → residual +80 restores the
	// +400 total.
	if d := e.Dominant(); d == nil || d.Cause != "refill" || d.Delta != 300 || d.Component != "core 0" {
		t.Fatalf("dominant %+v", d)
	}
	var residual *CauseDelta
	for i := range e.Causes {
		if e.Causes[i].Cause == residualCause {
			residual = &e.Causes[i]
		}
	}
	if residual == nil || residual.Delta != 80 {
		t.Fatalf("residual %+v, want +80", residual)
	}
}

// TestCompareLedgerSelfCheck: a ledger whose causes do not sum to its own
// stall_cycles is flagged, not silently used.
func TestCompareLedgerSelfCheck(t *testing.T) {
	bad := FromLedger("bad", 100, []profile.CoreSummary{
		{Core: 0, StallCycles: 99, Causes: map[string]uint64{"refill": 10}},
	})
	e := Compare(bad, bad)
	if e.CrossCheckError == "" || !strings.Contains(e.CrossCheckError, "ledger causes sum") {
		t.Fatalf("ledger self-check missing: %q", e.CrossCheckError)
	}
}

// cohortSummary builds a conserved summary for the cohort-layer tests.
func cohortSummary(execute, unlinked uint64, cohorts ...span.Cohort) *span.CohortSummary {
	s := &span.CohortSummary{ExecuteCycles: execute, UnlinkedCycles: unlinked, Cohorts: cohorts}
	s.TotalCycles = execute + unlinked
	for _, c := range cohorts {
		s.TotalCycles += c.CriticalCycles
	}
	return s
}

// TestCompareCohorts: cohort partitions subtract exactly, aligned by
// (component, op, line), with retry-count deltas on the leaves.
func TestCompareCohorts(t *testing.T) {
	oldRun := Run{Name: "old", Cohorts: cohortSummary(40, 10,
		span.Cohort{Component: "ppc", Op: "RdLine", Line: "0x1f80", CriticalCycles: 50, Count: 2, Retries: 1},
	)}
	oldRun.Cycles = oldRun.Cohorts.TotalCycles
	newRun := Run{Name: "new", Cohorts: cohortSummary(40, 14,
		span.Cohort{Component: "ppc", Op: "RdLine", Line: "0x1f80", CriticalCycles: 120, Count: 2, Retries: 35},
		span.Cohort{Component: "arm", Op: "WrLine", Line: "0x1f80", CriticalCycles: 6, Count: 1},
	)}
	newRun.Cycles = newRun.Cohorts.TotalCycles
	e := Compare(oldRun, newRun)
	if !e.HasCohorts || !e.Conserved() || e.CrossCheckError != "" {
		t.Fatalf("cohort layer broken: %+v", e)
	}
	if e.UnlinkedDelta != 4 || e.ExecuteDelta != 0 {
		t.Fatalf("execute/unlinked deltas %d/%d", e.ExecuteDelta, e.UnlinkedDelta)
	}
	top := e.Cohorts[0]
	if top.Line != "0x1f80" || top.Op != "RdLine" || top.Delta != 70 || top.RetryDelta != 34 {
		t.Fatalf("top cohort %+v, want +70 cycles / +34 retries on RdLine 0x1f80", top)
	}
	// The cohort that only exists in the new run still shows up.
	if e.Cohorts[1].Component != "arm" || e.Cohorts[1].Delta != 6 {
		t.Fatalf("new-only cohort %+v", e.Cohorts[1])
	}
}

// TestCompareCohortsNonConserved: a broken partition is dropped and flagged
// rather than producing a non-conserved explanation.
func TestCompareCohortsNonConserved(t *testing.T) {
	good := Run{Name: "good", Cycles: 50, Cohorts: cohortSummary(50, 0)}
	bad := Run{Name: "bad", Cycles: 50, Cohorts: &span.CohortSummary{TotalCycles: 50, ExecuteCycles: 7}}
	e := Compare(good, bad)
	if e.HasCohorts {
		t.Fatal("non-conserved cohort partition accepted")
	}
	if !strings.Contains(e.CrossCheckError, "bad: cohort partition not conserved") {
		t.Fatalf("cross-check error %q", e.CrossCheckError)
	}
	if !e.Conserved() {
		t.Fatal("explanation must stay conserved after dropping the cohort layer")
	}
}

// TestCompareManifestDiff: provenance differences ride on the explanation.
func TestCompareManifestDiff(t *testing.T) {
	oldRun := Run{Name: "a", Cycles: 10, Manifest: &platform.Manifest{SchemaVersion: 5, GoVersion: "go1.21"}}
	newRun := Run{Name: "b", Cycles: 10, Manifest: &platform.Manifest{SchemaVersion: 5, GoVersion: "go1.23"}}
	e := Compare(oldRun, newRun)
	if len(e.ManifestDiff) != 1 || !strings.Contains(e.ManifestDiff[0], "go1.21 -> go1.23") {
		t.Fatalf("manifest diff %v", e.ManifestDiff)
	}
	if e.Delta != 0 || !e.Conserved() {
		t.Fatalf("zero-delta comparison broken: %+v", e)
	}
}

// TestFromReport: evidence is lifted out of a report with core names labeling
// the ledger entries.
func TestFromReport(t *testing.T) {
	rep := platform.Report{
		Scenario: "wcs",
		Cycles:   123,
		Cores:    []platform.CoreReport{{Name: "PPC603e"}, {Name: "ARM920T"}},
		Sections: platform.Sections{Profile: &profile.Summary{Cores: []profile.CoreSummary{
			{Core: 0, StallCycles: 5, Causes: map[string]uint64{"refill": 5}},
			{Core: 1, StallCycles: 3, Causes: map[string]uint64{"drain": 3}},
		}}},
	}
	r := FromReport("", rep)
	if r.Name != "wcs" || r.Cycles != 123 || len(r.Stalls) != 2 {
		t.Fatalf("run %+v", r)
	}
	e := Compare(r, r)
	if e.Source != SourceStallLedger || !e.Conserved() {
		t.Fatalf("self-comparison %+v", e)
	}
	for _, c := range e.Causes {
		if c.Cause == "refill" && c.Component != "PPC603e" {
			t.Fatalf("ledger entry not labeled with the core name: %+v", c)
		}
	}
}

// TestWriteText: the rendering carries the headline, manifest diff, both
// layer tables and the top-K truncation marker.
func TestWriteText(t *testing.T) {
	oldRun := Run{Name: "seed", Cycles: 100,
		Attribution: []span.Attribution{
			{Component: "ppc", Cause: "execute", Cycles: 40},
			{Component: "ppc", Cause: "refill", Cycles: 30},
			{Component: "bus", Cause: "arb-wait", Cycles: 20},
			{Component: "ppc", Cause: "drain", Cycles: 10},
		},
		Manifest: &platform.Manifest{SchemaVersion: 5, Seed: 1},
		Cohorts:  cohortSummary(40, 60),
	}
	newRun := oldRun
	newRun.Name = "head"
	newRun.Cycles = 130
	newRun.Attribution = []span.Attribution{
		{Component: "ppc", Cause: "execute", Cycles: 40},
		{Component: "ppc", Cause: "refill", Cycles: 55},
		{Component: "bus", Cause: "arb-wait", Cycles: 22},
		{Component: "ppc", Cause: "drain", Cycles: 13},
	}
	newRun.Manifest = &platform.Manifest{SchemaVersion: 5, Seed: 2}
	newRun.Cohorts = cohortSummary(40, 90)
	e := Compare(oldRun, newRun)
	var b strings.Builder
	e.WriteText(&b, 2)
	out := b.String()
	for _, want := range []string{
		"seed -> head: 100 -> 130 cycles (+30, +30.00%)",
		"manifest seed: 1 -> 2",
		"by cause (critical-path)",
		"refill",
		"... 2 more",
		"by cohort (execute +0, unlinked +30)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered text missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "arb-wait") {
		t.Errorf("top-2 rendering leaked a truncated cause:\n%s", out)
	}
}
