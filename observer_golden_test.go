package hetcc_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetcc"
	"hetcc/internal/platform"
)

// goldenDigests maps scheduler → run label → hex SHA-256.
type goldenDigests map[string]map[string]string

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkGoldenDigests compares got against the golden file at path (or
// rewrites it under -update).
func checkGoldenDigests(t *testing.T, path string, got goldenDigests) {
	t.Helper()
	if *updateGoldens {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
	var want goldenDigests
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	for _, scheduler := range schedulerModes {
		if len(got[scheduler]) != len(want[scheduler]) {
			t.Errorf("%s: %d runs, golden pins %d", scheduler, len(got[scheduler]), len(want[scheduler]))
		}
		for label, d := range got[scheduler] {
			if w := want[scheduler][label]; d != w {
				t.Errorf("%s %s: digest %s, golden %s", scheduler, label, d, w)
			}
		}
	}
}

// traceRuns are the text-trace golden's runs: WCS under the proposed
// solution on the three case-study platforms, plus the PF2 cached
// test-and-set run that ends in the paper's hardware deadlock (the
// examples/armdeadlock configuration), so the deadlock line is pinned too.
func traceRuns(scheduler string) []hetcc.BatchSpec {
	base := hetcc.Config{
		Scenario:  hetcc.WCS,
		Solution:  hetcc.Proposed,
		Params:    hetcc.Params{Lines: 8, ExecTime: 1, Iterations: 4},
		TraceCap:  100_000,
		Scheduler: scheduler,
		MaxCycles: 5_000_000,
	}
	pf1, pf2, pf3 := base, base, base
	pf1.Processors = platform.ARMPair()
	pf2.Processors = platform.PPCARm()
	pf3.Processors = platform.PPCI486()
	dl := base
	dl.Processors = platform.PPCARm()
	dl.Lock = &platform.LockChoice{Kind: platform.LockCachedTAS, SpinDelay: 4}
	dl.Params = hetcc.Params{Lines: 4, ExecTime: 1, Iterations: 6}
	return []hetcc.BatchSpec{
		{Label: "pf1/WCS/proposed", Config: pf1},
		{Label: "pf2/WCS/proposed", Config: pf2},
		{Label: "pf3/WCS/proposed", Config: pf3},
		{Label: "pf2/WCS/proposed/cached-tas", Config: dl},
	}
}

// TestTraceGolden pins the bus and snoop-logic text trace (Platform.Log's
// WriteTo output) byte for byte, as a SHA-256 per run and scheduler in
// testdata/trace_digests.json.
func TestTraceGolden(t *testing.T) {
	got := goldenDigests{}
	for _, scheduler := range schedulerModes {
		got[scheduler] = map[string]string{}
		for _, spec := range traceRuns(scheduler) {
			p, err := hetcc.Build(spec.Config)
			if err != nil {
				t.Fatalf("%s: %v", spec.Label, err)
			}
			res := p.Run(spec.Config.MaxCycles)
			var buf bytes.Buffer
			if _, err := p.Log.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s %s: empty trace", scheduler, spec.Label)
			}
			if strings.HasSuffix(spec.Label, "cached-tas") {
				if !res.Deadlocked() || !strings.Contains(buf.String(), "hardware deadlock detected") {
					t.Fatalf("%s %s: want a deadlock and its trace line (err=%v)", scheduler, spec.Label, res.Err)
				}
			}
			got[scheduler][spec.Label] = sha256Hex(buf.Bytes())
		}
	}
	checkGoldenDigests(t, filepath.Join("testdata", "trace_digests.json"), got)
}

// TestMetricsGolden pins each run's "metrics" report section over the
// 27-run determinism matrix with Metrics on, as a SHA-256 per run and
// scheduler in testdata/metrics_digests.json.  The two schedulers differ
// only in the event scheduler's own sched.* telemetry.
func TestMetricsGolden(t *testing.T) {
	got := goldenDigests{}
	for _, scheduler := range schedulerModes {
		specs := determinismBatch(t, scheduler)
		for i := range specs {
			specs[i].Config.Metrics = true
		}
		results := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: 2, Reports: true})
		if err := hetcc.BatchFirstError(results); err != nil {
			t.Fatal(err)
		}
		got[scheduler] = map[string]string{}
		for _, r := range results {
			if r.Report.Metrics == nil {
				t.Fatalf("%s: no metrics section", r.Label)
			}
			raw, err := json.Marshal(r.Report.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			got[scheduler][r.Label] = sha256Hex(raw)
		}
	}
	checkGoldenDigests(t, filepath.Join("testdata", "metrics_digests.json"), got)
}
