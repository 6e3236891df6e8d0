package hetcc_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hetcc"
	"hetcc/internal/platform"
)

// schedCount is one event-scheduler run's wake telemetry, as its report's
// sched.* metrics give it, beside the instructions the cores retired.
type schedCount struct {
	Wakes        uint64 `json:"wakes"`
	Passes       uint64 `json:"passes"`
	Instructions uint64 `json:"instructions"`
	// WakesPerInstr is Wakes/Instructions to three decimals, for reading.
	WakesPerInstr float64 `json:"wakes_per_instr"`
}

func schedCountOf(t *testing.T, label string, rep *platform.Report) schedCount {
	t.Helper()
	if rep.Metrics == nil {
		t.Fatalf("%s: no metrics section", label)
	}
	c := schedCount{
		Wakes:  rep.Metrics.Counters["sched.wakes"],
		Passes: rep.Metrics.Counters["sched.passes"],
	}
	for _, core := range rep.Cores {
		c.Instructions += core.CPU.Instructions
	}
	if c.Wakes == 0 || c.Instructions == 0 {
		t.Fatalf("%s: %d wakes for %d instructions", label, c.Wakes, c.Instructions)
	}
	c.WakesPerInstr = math.Round(1000*float64(c.Wakes)/float64(c.Instructions)) / 1000
	return c
}

// TestSchedCounts pins the event scheduler's sched.wakes and sched.passes
// for every run of the 27-run matrix, the off-matrix runs and the
// dma-pipelined platform, in the readable testdata/sched_counts.json.  The
// section digests leave the sched.* family out of the metrics section, so
// this table is where a change to the kernel's scheduling shows: a pure
// speed-up of the kernel leaves it unchanged, and a change that wakes
// components less often lowers wakes and passes without moving any other
// golden.  Regenerate with `go test -run TestSchedCounts -update .` and list
// each moved value.
func TestSchedCounts(t *testing.T) {
	specs := append(determinismBatch(t, platform.SchedulerEvent), offMatrixSpecs()...)
	for i := range specs {
		specs[i].Config.Scheduler = platform.SchedulerEvent
		specs[i].Config.Metrics = true
	}
	results := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: 2, Reports: true})
	if err := hetcc.BatchFirstError(results); err != nil {
		t.Fatal(err)
	}
	got := map[string]schedCount{}
	for _, r := range results {
		got[r.Label] = schedCountOf(t, r.Label, r.Report)
	}
	_, rep := runKitchenSink(t, platform.SchedulerEvent, func(c *hetcc.Config) { c.Metrics = true })
	got["dma-pipelined"] = schedCountOf(t, "dma-pipelined", &rep)

	path := filepath.Join("testdata", "sched_counts.json")
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
	var want map[string]schedCount
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Errorf("%d runs, golden pins %d", len(got), len(want))
	}
	for label, c := range got {
		if w := want[label]; c != w {
			t.Errorf("%s: %+v, golden %+v", label, c, w)
		}
	}
}
