package hetcc_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hetcc"
	"hetcc/internal/platform"
)

// offMatrixDigest is one pinned off-matrix run: its cycle count and the
// SHA-256 of its profile section and of its metrics section without the
// sched.* family (see schedFreeDigest).
type offMatrixDigest struct {
	Cycles  uint64 `json:"cycles"`
	Profile string `json:"profile"`
	Metrics string `json:"metrics"`
}

// TestOffMatrixDigests pins, per scheduler, the cycles and the profile and
// metrics section digests of TestSchedulerEquivalenceOffMatrix's runs and
// its dma-pipelined platform, with Metrics and Profile on, in
// testdata/offmatrix_digests.json.  Each run's entry must be the same under
// both schedulers.  These runs reach the pipelined bus, the
// Intel486WT write-through fill path and the DMA master, which the 27-run
// matrix does not.  Regenerate with `go test -run TestOffMatrixDigests
// -update .` only after an intended model change, and list each moved run.
func TestOffMatrixDigests(t *testing.T) {
	digest := func(t *testing.T, label string, cycles uint64, rep *platform.Report) offMatrixDigest {
		t.Helper()
		if rep.Profile == nil || rep.Metrics == nil {
			t.Fatalf("%s: report lacks its profile or metrics section", label)
		}
		prof, err := json.Marshal(rep.Profile)
		if err != nil {
			t.Fatal(err)
		}
		return offMatrixDigest{Cycles: cycles, Profile: sha256Hex(prof), Metrics: schedFreeDigest(t, rep.Metrics)}
	}
	got := map[string]map[string]offMatrixDigest{}
	for _, scheduler := range schedulerModes {
		specs := offMatrixSpecs()
		for i := range specs {
			specs[i].Config.Scheduler = scheduler
			specs[i].Config.Metrics = true
		}
		results := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: 2, Reports: true})
		if err := hetcc.BatchFirstError(results); err != nil {
			t.Fatal(err)
		}
		runs := map[string]offMatrixDigest{}
		for _, r := range results {
			runs[r.Label] = digest(t, r.Label, r.Result.Cycles, r.Report)
		}
		cycles, rep := runKitchenSink(t, scheduler, true)
		runs["dma-pipelined"] = digest(t, "dma-pipelined", cycles, &rep)
		got[scheduler] = runs
	}
	for label, d := range got[platform.SchedulerEvent] {
		if tick := got[platform.SchedulerTick][label]; d != tick {
			t.Errorf("%s: event %+v, tick %+v", label, d, tick)
		}
	}

	path := filepath.Join("testdata", "offmatrix_digests.json")
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
	var want map[string]map[string]offMatrixDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	for _, scheduler := range schedulerModes {
		if len(got[scheduler]) != len(want[scheduler]) {
			t.Errorf("%s: %d runs, golden pins %d", scheduler, len(got[scheduler]), len(want[scheduler]))
		}
		for label, d := range got[scheduler] {
			if w := want[scheduler][label]; d != w {
				t.Errorf("%s %s: %+v, golden %+v", scheduler, label, d, w)
			}
		}
	}
}
