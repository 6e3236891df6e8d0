package hetcc_test

import (
	"fmt"
	"testing"

	"hetcc"
	"hetcc/internal/coherence"
	"hetcc/internal/explore"
	"hetcc/internal/platform"
)

// TestExplorerContainsAuditedStates cross-validates the abstract state-space
// explorer against the live simulator: every per-core coherence state the
// invariant auditor observes across the paper's 27-combination matrix (three
// platforms × three scenarios × three solutions) plus the same nine runs on a
// 4-core heterogeneous platform, under both engine schedulers, must be in the explorer's reachable set for the matching
// hardware mode.  If the abstraction ever under-approximates the real
// machine, this test names the state the model cannot reach.
func TestExplorerContainsAuditedStates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full simulation matrix twice")
	}

	presets := []struct {
		label string
		procs []platform.ProcessorSpec
	}{
		{"PF1 (ARM+ARM)", platform.ARMPair()},
		{"PF2 (PPC+ARM)", platform.PPCARm()},
		{"PF3 (PPC+i486)", platform.PPCI486()},
		// The 4-core heterogeneous mix of BenchmarkScalingProcessors.
		{"PF3 (4 cores)", []platform.ProcessorSpec{
			platform.Generic("P0-MEI", coherence.MEI, 1),
			platform.Generic("P1-MESI", coherence.MESI, 1),
			platform.Generic("P2-MOESI", coherence.MOESI, 1),
			platform.Generic("P3-MSI", coherence.MSI, 1),
		}},
	}

	// Hardware-mode map: the proposed solution installs wrappers and snoop
	// logic (ModeWrapped); the cache-disabled and software baselines run
	// with no coherence hardware at all (ModeNoSnoop) — see the snoops
	// wiring in internal/platform/build.go.
	modeFor := func(sol hetcc.Solution) explore.Mode {
		if sol == hetcc.Proposed {
			return explore.ModeWrapped
		}
		return explore.ModeNoSnoop
	}

	// Pre-compute the explorer's reachable sets once per preset × mode.
	reach := make(map[string]map[explore.Mode]*explore.Result)
	for _, p := range presets {
		kinds := make([]coherence.Kind, len(p.procs))
		for i, spec := range p.procs {
			kinds[i] = spec.Protocol
		}
		reach[p.label] = make(map[explore.Mode]*explore.Result)
		for _, mode := range []explore.Mode{explore.ModeWrapped, explore.ModeNoSnoop} {
			res, err := explore.Explore(explore.Config{Protocols: kinds, Mode: mode})
			if err != nil {
				t.Fatalf("%s %v: %v", p.label, mode, err)
			}
			if !res.Complete {
				t.Fatalf("%s %v: exploration overflowed (%d dropped)", p.label, mode, res.Dropped)
			}
			reach[p.label][mode] = res
		}
	}

	byName := make(map[string]coherence.State)
	for _, s := range []coherence.State{
		coherence.Invalid, coherence.Shared, coherence.Exclusive,
		coherence.Modified, coherence.Owned,
	} {
		byName[s.String()] = s
	}

	scenarios := []hetcc.Scenario{hetcc.WCS, hetcc.TCS, hetcc.BCS}
	solutions := []hetcc.Solution{hetcc.CacheDisabled, hetcc.Software, hetcc.Proposed}

	for _, sched := range []string{platform.SchedulerEvent, platform.SchedulerTick} {
		t.Run(sched, func(t *testing.T) {
			type meta struct {
				preset string
				sol    hetcc.Solution
			}
			var (
				specs []hetcc.BatchSpec
				metas []meta
			)
			for _, p := range presets {
				for _, scen := range scenarios {
					for _, sol := range solutions {
						specs = append(specs, hetcc.BatchSpec{
							Label: fmt.Sprintf("%s/%v/%v", p.label, scen, sol),
							Config: hetcc.Config{
								Scenario:   scen,
								Solution:   sol,
								Processors: p.procs,
								Params:     hetcc.Params{Lines: 8, ExecTime: 1, Iterations: 4, WordsPerLine: 8},
								Audit:      true,
								Scheduler:  sched,
								MaxCycles:  5_000_000,
							},
						})
						metas = append(metas, meta{p.label, sol})
					}
				}
			}

			results := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: 4})
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("%s: %v", specs[i].Label, r.Err)
				}
				if r.Result.Err != nil {
					t.Fatalf("%s: run failed: %v", specs[i].Label, r.Result.Err)
				}
				a := r.Result.Audit
				if a == nil {
					t.Fatalf("%s: no audit summary", specs[i].Label)
				}
				res := reach[metas[i].preset][modeFor(metas[i].sol)]
				for core, states := range a.Reachable {
					for _, name := range states {
						s, ok := byName[name]
						if !ok {
							t.Fatalf("%s: core %d reported unknown state %q", specs[i].Label, core, name)
						}
						if !res.Reachable[core].Has(s) {
							t.Errorf("%s: core %d observed state %v on the live simulator, but the %v explorer cannot reach it — the abstract model under-approximates the machine",
								specs[i].Label, core, s, modeFor(metas[i].sol))
						}
					}
				}
			}
		})
	}
}
