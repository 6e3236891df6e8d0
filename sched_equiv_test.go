package hetcc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"hetcc"
	"hetcc/internal/coherence"
	"hetcc/internal/platform"
	"hetcc/internal/workload"
)

// TestSchedulerEquivalenceOffMatrix extends the dual-scheduler gate past the
// 27-run matrix to the configurations it does not reach: the pipelined bus,
// the lock mechanisms other than the uncached test-and-set, cores at clock
// divisors that are not the bus's, four bus masters, and a platform with the
// DMA engine on the bus.  Each run must give identical cycle counts and
// byte-identical JSON reports under the event and tick schedulers.
func TestSchedulerEquivalenceOffMatrix(t *testing.T) {
	specs := offMatrixSpecs()
	run := func(scheduler string) []hetcc.BatchResult {
		s := make([]hetcc.BatchSpec, len(specs))
		copy(s, specs)
		for i := range s {
			s[i].Config.Scheduler = scheduler
		}
		return hetcc.RunBatch(s, hetcc.BatchOptions{Jobs: 2, Reports: true})
	}
	event, tick := run(platform.SchedulerEvent), run(platform.SchedulerTick)
	for i := range specs {
		a, b := event[i], tick[i]
		if a.Err != nil || b.Err != nil {
			t.Errorf("%s: event err %v, tick err %v", specs[i].Label, a.Err, b.Err)
			continue
		}
		compareReports(t, specs[i].Label, a.Result.Cycles, b.Result.Cycles, a.Report, b.Report)
	}

	t.Run("dma-pipelined", func(t *testing.T) {
		var cycles [2]uint64
		var reports [2]platform.Report
		for i, sched := range schedulerModes {
			cycles[i], reports[i] = runKitchenSink(t, sched, nil)
		}
		compareReports(t, "dma-pipelined", cycles[0], cycles[1], &reports[0], &reports[1])
	})
}

// offMatrixSpecs are the off-matrix runs: the pipelined bus on the three
// case-study platforms under WCS and TCS, the three other lock kinds, the
// ARM at clock divisors 3 and 4, and the 4-core protocol mix.
func offMatrixSpecs() []hetcc.BatchSpec {
	presets := []struct {
		name  string
		procs []platform.ProcessorSpec
	}{
		{"pf1", platform.ARMPair()},
		{"pf2", platform.PPCARm()},
		{"pf3", platform.PPCI486()},
	}
	base := func(procs []platform.ProcessorSpec, scenario workload.Scenario) hetcc.Config {
		return hetcc.Config{
			Scenario:   scenario,
			Solution:   hetcc.Proposed,
			Processors: procs,
			Params:     hetcc.Params{Lines: 8, ExecTime: 1, Iterations: 3},
			Verify:     true,
			Audit:      true,
			Profile:    true,
			Spans:      true,
			MaxCycles:  5_000_000,
		}
	}
	var specs []hetcc.BatchSpec
	for _, pf := range presets {
		for _, scenario := range []workload.Scenario{hetcc.WCS, hetcc.TCS} {
			cfg := base(pf.procs, scenario)
			cfg.PipelinedBus = true
			specs = append(specs, hetcc.BatchSpec{Label: fmt.Sprintf("pipelined/%s/%v", pf.name, scenario), Config: cfg})
		}
	}
	for _, kind := range []platform.LockKind{platform.LockHardwareRegister, platform.LockBakery, platform.LockPeterson} {
		cfg := base(platform.PPCARm(), hetcc.WCS)
		cfg.Lock = &platform.LockChoice{Kind: kind, Alternate: true, SpinDelay: 4}
		specs = append(specs, hetcc.BatchSpec{Label: fmt.Sprintf("lock/%v", kind), Config: cfg})
	}
	for _, div := range []uint64{3, 4} {
		procs := platform.PPCARm()
		procs[1].ClockDiv = div
		specs = append(specs, hetcc.BatchSpec{Label: fmt.Sprintf("arm-div%d", div), Config: base(procs, hetcc.WCS)})
	}
	var scaling []platform.ProcessorSpec
	for i, k := range []coherence.Kind{coherence.MEI, coherence.MESI, coherence.MOESI, coherence.MSI} {
		scaling = append(scaling, platform.Generic(fmt.Sprintf("P%d-%v", i, k), k, 1))
	}
	cfg := base(scaling, hetcc.WCS)
	cfg.Params = hetcc.Params{Lines: 8, ExecTime: 1, Iterations: 4}
	specs = append(specs, hetcc.BatchSpec{Label: "scaling-4core", Config: cfg})

	return specs
}

// runKitchenSink runs platform_test.go's every-feature platform (pipelined
// bus, DMA engine, wrapper latency, write-through i486, two locks, race
// checker).  Auditing, profiling and spans are on; on, when not nil,
// switches further observers on.  The platform comes from
// hetcc.PlatformConfig, so each observer maps as hetcc.Build maps it; only
// the DMA engine, which hetcc.Config does not offer, is set here.
func runKitchenSink(t *testing.T, scheduler string, on func(*hetcc.Config)) (uint64, platform.Report) {
	t.Helper()
	specs := []platform.ProcessorSpec{platform.PowerPC755(), platform.Intel486WT(), platform.ARM920T()}
	for i := range specs {
		specs[i].WrapperLatency = 1
	}
	cfg := hetcc.Config{
		Processors:   specs,
		Solution:     platform.Proposed,
		Lock:         &platform.LockChoice{Kind: platform.LockUncachedTAS, Alternate: true, SpinDelay: 4, Count: 2},
		Verify:       true,
		RaceCheck:    true,
		PipelinedBus: true,
		Audit:        true,
		Profile:      true,
		Spans:        true,
		Scheduler:    scheduler,
	}
	if on != nil {
		on(&cfg)
	}
	pc := hetcc.PlatformConfig(cfg)
	pc.DMA = true
	p, err := platform.Build(pc)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := workload.Programs(workload.WCS, workload.Params{Lines: 4, ExecTime: 2, Iterations: 3}, platform.Proposed, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadPrograms(progs); err != nil {
		t.Fatal(err)
	}
	res := p.Run(30_000_000)
	if res.Err != nil {
		t.Fatalf("%s: err=%v reason=%s", scheduler, res.Err, res.StopReason)
	}
	return res.Cycles, p.Report(res, workload.WCS.String())
}

// compareReports fails t unless the event-scheduler run (a) and the
// tick-scheduler run (b) agree on cycles and on every report byte.
func compareReports(t *testing.T, label string, cyclesA, cyclesB uint64, a, b *platform.Report) {
	t.Helper()
	if cyclesA != cyclesB {
		t.Errorf("%s: cycle counts differ: event %d, tick %d", label, cyclesA, cyclesB)
	}
	rawA, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("%s: marshal event report: %v", label, err)
	}
	rawB, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("%s: marshal tick report: %v", label, err)
	}
	if !bytes.Equal(rawA, rawB) {
		t.Errorf("%s: event and tick reports differ:\n%s\n---\n%s", label, rawA, rawB)
	}
}
