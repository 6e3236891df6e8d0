package hetcc_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"hetcc"
	"hetcc/internal/coherence"
	"hetcc/internal/platform"
	"hetcc/internal/workload"
)

// FuzzSchedulerEquivalence fuzzes the dual-scheduler contract over the whole
// configuration surface: any (platform pair, scenario, solution, seed, lock
// mechanism, bus mode) combination that builds must produce byte-identical
// JSON reports and identical digests under the event and tick schedulers.
// pipelined selects the overlapped (AHB-style) bus, whose tenures a core can
// stall on while the next one's address phase runs.  The committed seed
// corpus covers each platform, solution and lock kind at least once, and
// each platform with the pipelined bus, so
// plain `go test` replays the corpus as regression cases; `go test -fuzz
// FuzzSchedulerEquivalence` explores further.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add(0, 0, 0, uint64(1), 0, false)
	f.Add(1, 1, 2, uint64(42), 2, false)
	f.Add(2, 2, 1, uint64(7), 1, false)
	f.Add(1, 0, 2, uint64(3), 3, false)
	f.Add(0, 2, 2, uint64(9), 4, false)
	// Heterogeneous edge cases beyond the case-study platforms: an
	// update×invalidate mix (rejected by the reduction — both schedulers
	// must agree on the rejection) and a coherence-less master beside a
	// shared-state protocol (the PF2 implicit-MEI reduction).
	f.Add(3, 0, 2, uint64(11), 0, false)
	f.Add(3, 1, 1, uint64(13), 1, false)
	f.Add(4, 0, 2, uint64(17), 0, false)
	f.Add(4, 2, 0, uint64(19), 2, false)
	f.Fuzz(func(t *testing.T, pf, scenario, solution int, seed uint64, lockKind int, pipelined bool) {
		presets := [][]platform.ProcessorSpec{
			platform.ARMPair(), platform.PPCARm(), platform.PPCI486(),
			{
				platform.Generic("P0-Dragon", coherence.Dragon, 1),
				platform.Generic("P1-MOESI", coherence.MOESI, 1),
			},
			{
				platform.Generic("P0-none", coherence.None, 1),
				platform.Generic("P1-MESI", coherence.MESI, 1),
			},
		}
		scenarios := workload.Scenarios()
		solutions := platform.Solutions()
		locks := []platform.LockKind{
			platform.LockUncachedTAS, platform.LockHardwareRegister,
			platform.LockBakery, platform.LockCachedTAS, platform.LockPeterson,
		}
		if pf < 0 || pf >= len(presets) ||
			scenario < 0 || scenario >= len(scenarios) ||
			solution < 0 || solution >= len(solutions) ||
			lockKind < 0 || lockKind >= len(locks) {
			t.Skip("selector out of range")
		}
		run := func(scheduler string) hetcc.BatchResult {
			spec := hetcc.BatchSpec{
				Label: "fuzz",
				Config: hetcc.Config{
					Scenario:   scenarios[scenario],
					Solution:   solutions[solution],
					Processors: presets[pf],
					Params:     hetcc.Params{Lines: 4, ExecTime: 1, Iterations: 2, Seed: seed},
					Lock: &platform.LockChoice{
						Kind:      locks[lockKind],
						Alternate: scenarios[scenario].Alternate(),
						SpinDelay: 4,
					},
					PipelinedBus: pipelined,
					Verify:       true,
					Audit:        true,
					Profile:      true,
					Spans:        true,
					Scheduler:    scheduler,
					MaxCycles:    5_000_000,
				},
			}
			return hetcc.RunBatch([]hetcc.BatchSpec{spec}, hetcc.BatchOptions{Jobs: 1, Reports: true})[0]
		}
		event := run(platform.SchedulerEvent)
		tick := run(platform.SchedulerTick)
		if (event.Err == nil) != (tick.Err == nil) {
			t.Fatalf("schedulers disagree on run viability: event err %v, tick err %v", event.Err, tick.Err)
		}
		if event.Err != nil {
			t.Skip("combination does not build:", event.Err)
		}
		rawEvent, err := json.Marshal(event.Report)
		if err != nil {
			t.Fatalf("marshal event report: %v", err)
		}
		rawTick, err := json.Marshal(tick.Report)
		if err != nil {
			t.Fatalf("marshal tick report: %v", err)
		}
		if !bytes.Equal(rawEvent, rawTick) {
			t.Errorf("event and tick reports differ:\n%s\n---\n%s", rawEvent, rawTick)
		}
		if event.Digest == "" || event.Digest != tick.Digest {
			t.Errorf("digest mismatch: event %q, tick %q", event.Digest, tick.Digest)
		}
		if event.Result.Cycles != tick.Result.Cycles {
			t.Errorf("cycle counts differ: event %d, tick %d", event.Result.Cycles, tick.Result.Cycles)
		}
	})
}
