package hetcc

// Property tests for the online invariant auditor: the state sets each cache
// actually reaches on live runs must match the paper's protocol-reduction
// table (Section 2), per wrapper policy — the dynamic counterpart of the
// exhaustive model check in internal/core.

import (
	"testing"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/platform"
	"hetcc/internal/workload"
)

// runAudited simulates a small WCS workload on the given processors under
// the proposed solution with auditing on and returns the result.
func runAudited(t *testing.T, procs []platform.ProcessorSpec, scenario Scenario) Result {
	t.Helper()
	res, err := Run(Config{
		Scenario:   scenario,
		Solution:   Proposed,
		Processors: procs,
		Params:     Params{Lines: 8, ExecTime: 1, Iterations: 6, WordsPerLine: 8},
		Verify:     true,
		Audit:      true,
		MaxCycles:  5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if res.Audit == nil {
		t.Fatal("audit summary missing")
	}
	return res
}

// genericPair builds a two-processor platform running protocols a and b.
func genericPair(a, b coherence.Kind) []platform.ProcessorSpec {
	return []platform.ProcessorSpec{
		platform.Generic("P0-"+a.String(), a, 1),
		platform.Generic("P1-"+b.String(), b, 1),
	}
}

// observedWithin checks every observed state name is Invalid or in allowed.
func observedWithin(observed []string, allowed coherence.StateSet) bool {
	for _, name := range observed {
		ok := name == coherence.Invalid.String()
		for _, s := range allowed.States() {
			if name == s.String() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func observes(observed []string, s coherence.State) bool {
	for _, name := range observed {
		if name == s.String() {
			return true
		}
	}
	return false
}

// TestReductionTableObserved sweeps the heterogeneous protocol pairs of the
// paper's reduction table and checks, for each, that the live runs (a) reduce
// to the expected effective protocol, (b) never leave the per-core allowed
// state sets, (c) actually exercise the protocol (Modified observed — the
// check is not vacuous), and (d) report zero invariant violations.
func TestReductionTableObserved(t *testing.T) {
	cases := []struct {
		a, b      coherence.Kind
		effective coherence.Kind
	}{
		{coherence.MEI, coherence.MSI, coherence.MEI},
		{coherence.MEI, coherence.MESI, coherence.MEI},
		{coherence.MEI, coherence.MOESI, coherence.MEI},
		{coherence.MSI, coherence.MESI, coherence.MSI},
		{coherence.MSI, coherence.MOESI, coherence.MSI},
		{coherence.MESI, coherence.MOESI, coherence.MESI},
	}
	for _, tc := range cases {
		t.Run(tc.a.String()+"+"+tc.b.String(), func(t *testing.T) {
			procs := genericPair(tc.a, tc.b)
			integ, err := core.Reduce([]coherence.Kind{tc.a, tc.b})
			if err != nil {
				t.Fatal(err)
			}
			if integ.Effective != tc.effective {
				t.Fatalf("reduced to %v, want %v", integ.Effective, tc.effective)
			}
			res := runAudited(t, procs, WCS)
			a := res.Audit
			if a.ViolationCount != 0 {
				t.Fatalf("%d invariant violations, first: %v", a.ViolationCount, a.Violations[0])
			}
			kinds := []coherence.Kind{tc.a, tc.b}
			sawModified := false
			for i, observed := range a.Reachable {
				allowed := core.AllowedStates(kinds[i], integ.Effective)
				if !observedWithin(observed, allowed) {
					t.Errorf("P%d (%v) observed %v outside allowed %v", i, kinds[i], observed, allowed)
				}
				if observes(observed, coherence.Modified) {
					sawModified = true
				}
				if tc.effective == coherence.MEI && kinds[i] != coherence.MSI &&
					(observes(observed, coherence.Shared) || observes(observed, coherence.Owned)) {
					t.Errorf("P%d (%v) reached S or O under MEI reduction: %v", i, kinds[i], observed)
				}
				if observes(observed, coherence.Owned) && tc.effective != coherence.MOESI {
					t.Errorf("P%d (%v) reached O under %v reduction: %v", i, kinds[i], tc.effective, observed)
				}
			}
			if !sawModified {
				t.Error("no core reached Modified: the workload did not exercise the protocol")
			}
		})
	}
}

// TestReductionHomogeneousControls makes the restriction checks non-vacuous:
// homogeneous platforms run their native protocol unreduced, so MESI sharing
// must actually produce S, and MOESI interventions must produce O.
func TestReductionHomogeneousControls(t *testing.T) {
	mesi := runAudited(t, genericPair(coherence.MESI, coherence.MESI), TCS)
	sawShared := false
	for _, observed := range mesi.Audit.Reachable {
		if observes(observed, coherence.Shared) {
			sawShared = true
		}
	}
	if !sawShared {
		t.Errorf("homogeneous MESI never reached S: %v", mesi.Audit.Reachable)
	}

	moesi := runAudited(t, genericPair(coherence.MOESI, coherence.MOESI), TCS)
	sawOwned := false
	for _, observed := range moesi.Audit.Reachable {
		if observes(observed, coherence.Owned) {
			sawOwned = true
		}
	}
	if !sawOwned {
		t.Errorf("homogeneous MOESI never reached O: %v", moesi.Audit.Reachable)
	}
	if mesi.Audit.ViolationCount != 0 || moesi.Audit.ViolationCount != 0 {
		t.Fatalf("homogeneous runs violated invariants: %d / %d",
			mesi.Audit.ViolationCount, moesi.Audit.ViolationCount)
	}
}

// TestAuditorCatchesUnwiredPlatform is the positive control: removing the
// wrappers from the PPC+i486 platform (the Tables 2/3 defect) must surface as
// audited violations — the auditor is proven able to fail.
func TestAuditorCatchesUnwiredPlatform(t *testing.T) {
	res, err := Run(Config{
		Scenario:        WCS,
		Solution:        Proposed,
		Processors:      platform.PPCI486(),
		Params:          Params{Lines: 8, ExecTime: 1, Iterations: 6, WordsPerLine: 8},
		Verify:          true,
		Audit:           true,
		DisableWrappers: true,
		MaxCycles:       5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if res.Coherent() {
		t.Fatal("unwired platform produced no stale reads (defect demo broke)")
	}
	if res.Audit == nil || res.Audit.ViolationCount == 0 {
		t.Fatal("auditor missed the unwired platform's incoherence")
	}
}

// TestAuditAcceptance runs every solution on every platform preset and
// scenario with auditing on: all combinations must complete with zero
// invariant violations (the PR's acceptance sweep).
func TestAuditAcceptance(t *testing.T) {
	presets := []struct {
		name  string
		procs []platform.ProcessorSpec
	}{
		{"pf1", platform.ARMPair()},
		{"pf2", platform.PPCARm()},
		{"pf3", platform.PPCI486()},
	}
	for _, pf := range presets {
		for _, scenario := range workload.Scenarios() {
			for _, sol := range platform.Solutions() {
				res, err := Run(Config{
					Scenario:   scenario,
					Solution:   sol,
					Processors: pf.procs,
					Params:     Params{Lines: 8, ExecTime: 1, Iterations: 4, WordsPerLine: 8},
					Verify:     true,
					Audit:      true,
					MaxCycles:  5_000_000,
				})
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", pf.name, scenario, sol, err)
				}
				if res.Err != nil {
					t.Fatalf("%s/%v/%v: run failed: %v", pf.name, scenario, sol, res.Err)
				}
				if res.Audit == nil || res.Audit.ViolationCount != 0 || !res.Coherent() {
					t.Fatalf("%s/%v/%v: audit failed: %+v", pf.name, scenario, sol, res.Audit)
				}
			}
		}
	}
}
