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
	"hetcc/internal/metrics"
	"hetcc/internal/platform"
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkGoldenDigests requires the digests of every scheduler in got
// (scheduler → run label → hex SHA-256) to equal the golden file at path,
// which maps run label → digest.  Under -update they must equal the tick
// scheduler's instead, which then rewrite the file.
func checkGoldenDigests(t *testing.T, path string, got map[string]map[string]string) {
	t.Helper()
	wantName, want := "tick", got[platform.SchedulerTick]
	if !*updateGoldens {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		wantName, want = "golden", nil
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
	}
	for _, scheduler := range schedulerModes {
		if len(got[scheduler]) != len(want) {
			t.Errorf("%s: %d runs, %s pins %d", scheduler, len(got[scheduler]), wantName, len(want))
		}
		for label, d := range got[scheduler] {
			if w := want[label]; d != w {
				t.Errorf("%s %s: digest %s, %s %s", scheduler, label, d, wantName, w)
			}
		}
	}
	if !*updateGoldens || t.Failed() {
		return
	}
	raw, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// traceRuns are the text-trace golden's runs: WCS under the proposed
// solution on the three case-study platforms, plus the PF2 cached
// test-and-set run that ends in the paper's hardware deadlock (the
// Example_armdeadlock configuration), so the deadlock line is pinned too.
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
// WriteTo output) byte for byte, as a SHA-256 per run in
// testdata/trace_digests.json that both schedulers must give.
func TestTraceGolden(t *testing.T) {
	got := map[string]map[string]string{}
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

// schedFreeDigest is the SHA-256 of a metrics section's JSON with the
// sched.* family removed: the part of the section both schedulers share.
func schedFreeDigest(t *testing.T, s *metrics.Snapshot) string {
	t.Helper()
	free := metrics.Snapshot{
		Counters:   dropSched(s.Counters),
		Gauges:     dropSched(s.Gauges),
		Histograms: dropSched(s.Histograms),
		Series:     dropSched(s.Series),
	}
	raw, err := json.Marshal(&free)
	if err != nil {
		t.Fatal(err)
	}
	return sha256Hex(raw)
}

// dropSched copies m without its sched.* keys.
func dropSched[V any](m map[string]V) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		if !strings.HasPrefix(k, "sched.") {
			out[k] = v
		}
	}
	return out
}
