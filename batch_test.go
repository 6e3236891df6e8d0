package hetcc_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetcc"
	"hetcc/internal/platform"
	"hetcc/internal/workload"
)

var updateGoldens = flag.Bool("update", false, "rewrite the golden batch-digest file")

// schedulerModes are the two engine scheduling strategies; every property in
// this package must hold under both, with byte-identical results.
var schedulerModes = []string{platform.SchedulerEvent, platform.SchedulerTick}

// determinismBatch is a representative run matrix: every case-study platform
// × scenario × solution, with verification, auditing, profiling and span
// collection on so the reports carry the full pre-v6 payload (stats,
// violations, audit summary, stall-cause profile, critical path).  The
// sharing collector stays off here — TestObserverNeutrality proves
// enabling it changes nothing but the added section.  The scheduler argument
// selects the engine strategy for every run in the batch.
func determinismBatch(t *testing.T, scheduler string) []hetcc.BatchSpec {
	t.Helper()
	presets := []struct {
		name  string
		procs []platform.ProcessorSpec
	}{
		{"pf1", platform.ARMPair()},
		{"pf2", platform.PPCARm()},
		{"pf3", platform.PPCI486()},
	}
	var specs []hetcc.BatchSpec
	for _, pf := range presets {
		for _, scenario := range workload.Scenarios() {
			for _, sol := range platform.Solutions() {
				specs = append(specs, hetcc.BatchSpec{
					Label: fmt.Sprintf("%s/%v/%v", pf.name, scenario, sol),
					Config: hetcc.Config{
						Scenario:   scenario,
						Solution:   sol,
						Processors: pf.procs,
						Params:     hetcc.Params{Lines: 4, ExecTime: 1, Iterations: 2},
						Verify:     true,
						Audit:      true,
						Profile:    true,
						Spans:      true,
						Scheduler:  scheduler,
						MaxCycles:  5_000_000,
					},
				})
			}
		}
	}
	return specs
}

// TestBatchDeterminismAcrossJobs is the determinism regression test of the
// parallel runner: the same spec batch run with jobs=1 and jobs=8 must
// produce byte-identical JSON run reports and identical audit digests, run
// by run and in aggregate.
func TestBatchDeterminismAcrossJobs(t *testing.T) {
	specs := determinismBatch(t, platform.SchedulerEvent)
	seq := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: 1, Reports: true})
	par := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: 8, Reports: true})
	if err := hetcc.BatchFirstError(seq); err != nil {
		t.Fatalf("jobs=1 batch failed: %v", err)
	}
	if err := hetcc.BatchFirstError(par); err != nil {
		t.Fatalf("jobs=8 batch failed: %v", err)
	}
	if len(seq) != len(specs) || len(par) != len(specs) {
		t.Fatalf("result counts: jobs=1 %d, jobs=8 %d, want %d", len(seq), len(par), len(specs))
	}
	for i := range specs {
		a, b := seq[i], par[i]
		if a.Label != specs[i].Label || b.Label != specs[i].Label {
			t.Fatalf("run %d: labels %q / %q, want %q (ordered aggregation broken)", i, a.Label, b.Label, specs[i].Label)
		}
		rawA, err := json.Marshal(a.Report)
		if err != nil {
			t.Fatalf("%s: marshal jobs=1 report: %v", a.Label, err)
		}
		rawB, err := json.Marshal(b.Report)
		if err != nil {
			t.Fatalf("%s: marshal jobs=8 report: %v", b.Label, err)
		}
		if !bytes.Equal(rawA, rawB) {
			t.Errorf("%s: jobs=1 and jobs=8 reports differ:\n%s\n---\n%s", a.Label, rawA, rawB)
		}
		if a.Digest == "" || a.Digest != b.Digest {
			t.Errorf("%s: digest mismatch: jobs=1 %q, jobs=8 %q", a.Label, a.Digest, b.Digest)
		}
		if a.Result.Cycles != b.Result.Cycles {
			t.Errorf("%s: cycle counts differ: %d vs %d", a.Label, a.Result.Cycles, b.Result.Cycles)
		}
	}
	dSeq, err := hetcc.BatchDigest(seq)
	if err != nil {
		t.Fatalf("jobs=1 batch digest: %v", err)
	}
	dPar, err := hetcc.BatchDigest(par)
	if err != nil {
		t.Fatalf("jobs=8 batch digest: %v", err)
	}
	if dSeq != dPar {
		t.Fatalf("aggregate batch digests differ: %s vs %s", dSeq, dPar)
	}
}

// TestSchedulerEquivalence is the dual-scheduler gate: the 27-run matrix
// executed under the event scheduler and under the tick scheduler must
// produce byte-identical JSON run reports, identical digests and identical
// cycle counts, run by run and in aggregate (DESIGN.md §8).  The event
// scheduler skips idle engine cycles; any wake it misses shows up here as a
// digest divergence.
func TestSchedulerEquivalence(t *testing.T) {
	event := hetcc.RunBatch(determinismBatch(t, platform.SchedulerEvent), hetcc.BatchOptions{Jobs: 4, Reports: true})
	tick := hetcc.RunBatch(determinismBatch(t, platform.SchedulerTick), hetcc.BatchOptions{Jobs: 4, Reports: true})
	if err := hetcc.BatchFirstError(event); err != nil {
		t.Fatalf("event batch failed: %v", err)
	}
	if err := hetcc.BatchFirstError(tick); err != nil {
		t.Fatalf("tick batch failed: %v", err)
	}
	for i := range event {
		a, b := event[i], tick[i]
		if a.Label != b.Label {
			t.Fatalf("run %d: labels %q / %q diverged", i, a.Label, b.Label)
		}
		rawA, err := json.Marshal(a.Report)
		if err != nil {
			t.Fatalf("%s: marshal event report: %v", a.Label, err)
		}
		rawB, err := json.Marshal(b.Report)
		if err != nil {
			t.Fatalf("%s: marshal tick report: %v", b.Label, err)
		}
		if !bytes.Equal(rawA, rawB) {
			t.Errorf("%s: event and tick reports differ:\n%s\n---\n%s", a.Label, rawA, rawB)
		}
		if a.Digest == "" || a.Digest != b.Digest {
			t.Errorf("%s: digest mismatch: event %q, tick %q", a.Label, a.Digest, b.Digest)
		}
		if a.Result.Cycles != b.Result.Cycles {
			t.Errorf("%s: cycle counts differ: event %d, tick %d", a.Label, a.Result.Cycles, b.Result.Cycles)
		}
	}
	dEvent, err := hetcc.BatchDigest(event)
	if err != nil {
		t.Fatalf("event batch digest: %v", err)
	}
	dTick, err := hetcc.BatchDigest(tick)
	if err != nil {
		t.Fatalf("tick batch digest: %v", err)
	}
	if dEvent != dTick {
		t.Fatalf("aggregate batch digests differ: event %s, tick %s", dEvent, dTick)
	}
}

// TestBatchDerivedSeedsDeterministic: BaseSeed-derived per-run seeds are a
// pure function of the batch position, so derived-seed batches reproduce
// across worker counts too — and distinct positions draw distinct streams.
func TestBatchDerivedSeedsDeterministic(t *testing.T) {
	var specs []hetcc.BatchSpec
	for i := 0; i < 6; i++ {
		specs = append(specs, hetcc.BatchSpec{
			Label: fmt.Sprintf("tcs-%d", i),
			Config: hetcc.Config{
				Scenario:  hetcc.TCS,
				Solution:  hetcc.Proposed,
				Params:    hetcc.Params{Lines: 2, ExecTime: 1, Iterations: 2},
				Verify:    true,
				MaxCycles: 5_000_000,
			},
		})
	}
	opts := func(jobs int) hetcc.BatchOptions {
		return hetcc.BatchOptions{Jobs: jobs, Reports: true, BaseSeed: 0xfeedface}
	}
	seq := hetcc.RunBatch(specs, opts(1))
	par := hetcc.RunBatch(specs, opts(8))
	if err := hetcc.BatchFirstError(seq); err != nil {
		t.Fatalf("jobs=1: %v", err)
	}
	distinct := make(map[string]bool)
	for i := range specs {
		if seq[i].Digest != par[i].Digest {
			t.Errorf("%s: derived-seed digests differ across job counts", specs[i].Label)
		}
		distinct[seq[i].Digest] = true
	}
	// TCS block selection is seed-driven: at least some of the six derived
	// seeds must pick different block sequences.
	if len(distinct) < 2 {
		t.Fatalf("all %d derived-seed runs digested identically; seed derivation is not taking effect", len(specs))
	}
}

// TestBatchErrorHandling: build errors land in BatchResult.Err at the right
// index, siblings are unaffected, and BatchDigest refuses failed batches.
func TestBatchErrorHandling(t *testing.T) {
	specs := []hetcc.BatchSpec{
		{Label: "ok", Config: hetcc.Config{Scenario: hetcc.WCS, Solution: hetcc.Proposed,
			Params: hetcc.Params{Lines: 1, ExecTime: 1, Iterations: 1}, MaxCycles: 5_000_000}},
		{Label: "bad", Config: hetcc.Config{Scenario: hetcc.WCS, Solution: hetcc.Proposed,
			Params: hetcc.Params{Lines: -3}, MaxCycles: 5_000_000}},
	}
	results := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: 2, Reports: true})
	if results[0].Err != nil || results[0].Result.Err != nil {
		t.Fatalf("ok run failed: %v / %v", results[0].Err, results[0].Result.Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), `"bad"`) {
		t.Fatalf("bad run error = %v, want labelled build failure", results[1].Err)
	}
	if err := hetcc.BatchFirstError(results); err == nil {
		t.Fatal("BatchFirstError missed the failure")
	}
	if _, err := hetcc.BatchDigest(results); err == nil {
		t.Fatal("BatchDigest accepted a failed batch")
	}
}

// TestBatchGoldenDigests pins the jobs=1 report digests of the full
// 27-combination matrix (platform × scenario × solution, schema-v6 reports
// with audit, profile, critical-path and cohort sections) against a committed golden
// file — under both schedulers, which must reproduce the same digests.  This is
// the differential gate for behavior-preserving optimizations: a hot-loop
// change that alters even one simulated cycle, stat counter or profile span
// shifts a digest and fails here.  Regenerate with `go test -run
// TestBatchGoldenDigests -update .` only when an intentional model change
// shipped (the golden is written from the tick reference scheduler).
func TestBatchGoldenDigests(t *testing.T) {
	type golden struct {
		ReportSchemaVersion int               `json:"report_schema_version"`
		BatchDigest         string            `json:"batch_digest"`
		Runs                map[string]string `json:"runs"`
	}
	digestsFor := func(t *testing.T, scheduler string) golden {
		specs := determinismBatch(t, scheduler)
		results := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: 1, Reports: true})
		if err := hetcc.BatchFirstError(results); err != nil {
			t.Fatalf("batch failed: %v", err)
		}
		batch, err := hetcc.BatchDigest(results)
		if err != nil {
			t.Fatalf("batch digest: %v", err)
		}
		cur := golden{
			ReportSchemaVersion: platform.ReportSchemaVersion,
			BatchDigest:         batch,
			Runs:                make(map[string]string, len(results)),
		}
		for _, r := range results {
			cur.Runs[r.Label] = r.Digest
		}
		return cur
	}
	path := filepath.Join("testdata", "batch_digests_v6.json")
	if *updateGoldens {
		cur := digestsFor(t, platform.SchedulerTick)
		raw, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want golden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if want.ReportSchemaVersion != platform.ReportSchemaVersion {
		t.Fatalf("golden file pins schema v%d, code is v%d (regenerate with -update after a deliberate schema bump)",
			want.ReportSchemaVersion, platform.ReportSchemaVersion)
	}
	for _, scheduler := range schedulerModes {
		scheduler := scheduler
		t.Run(scheduler, func(t *testing.T) {
			cur := digestsFor(t, scheduler)
			for label, got := range cur.Runs {
				if want := want.Runs[label]; got != want {
					t.Errorf("%s: report digest %s, golden %s (simulation behavior changed)", label, got, want)
				}
			}
			if cur.BatchDigest != want.BatchDigest {
				t.Errorf("batch digest %s, golden %s", cur.BatchDigest, want.BatchDigest)
			}
		})
	}
}
