package core_test

import (
	"testing"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/explore"
)

// These tests model-check Reduce's wrapper policies with the exhaustive
// single-line explorer: ModeWrapped runs each master behind the policies
// Reduce computes, ModeUnwired is the un-integrated bus (no shared-signal
// wiring, no conversions, no cache-to-cache supply).

func explored(t *testing.T, mode explore.Mode, protos ...coherence.Kind) *explore.Result {
	t.Helper()
	res, err := explore.Explore(explore.Config{Protocols: protos, Mode: mode})
	if err != nil {
		t.Fatalf("%v %v: %v", protos, mode, err)
	}
	if !res.Complete {
		t.Fatalf("%v %v: exploration incomplete (%d dropped)", protos, mode, res.Dropped)
	}
	return res
}

// TestVerifyHomogeneousProtocolsAreCoherent: every protocol is coherent
// with itself under Reduce's homogeneous policies.
func TestVerifyHomogeneousProtocolsAreCoherent(t *testing.T) {
	for _, k := range []coherence.Kind{coherence.MEI, coherence.MSI, coherence.MESI, coherence.MOESI} {
		res := explored(t, explore.ModeWrapped, k, k)
		if len(res.Violations) != 0 {
			t.Errorf("homogeneous %v: %v", k, res.Violations[0])
		}
	}
	// Homogeneous MOESI keeps cache-to-cache supply, so O is reachable.
	if res := explored(t, explore.ModeWrapped, coherence.MOESI, coherence.MOESI); !res.Reachable[0].Has(coherence.Owned) {
		t.Error("homogeneous MOESI never reached O")
	}
}

// TestVerifyTable2Defect: MEI+MESI without integration produces the exact
// staleness of the paper's Table 2.
func TestVerifyTable2Defect(t *testing.T) {
	res := explored(t, explore.ModeUnwired, coherence.MESI, coherence.MEI)
	if len(res.Violations) == 0 {
		t.Fatal("no violation found in un-integrated MEI+MESI")
	}
	found := false
	for _, v := range res.Violations {
		if v.Check == core.CheckStaleRead && v.Master == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no stale-read at the MESI processor; got %v", res.Violations)
	}
}

// TestVerifyTable3Defect: MSI+MESI without integration is also stale.
func TestVerifyTable3Defect(t *testing.T) {
	if res := explored(t, explore.ModeUnwired, coherence.MSI, coherence.MESI); len(res.Violations) == 0 {
		t.Fatal("no violation found in un-integrated MSI+MESI")
	}
}

// TestVerifyAllMixesSoundWithReduction is the paper's Section 2 soundness
// claim, model-checked: for every pair of invalidation protocols, the
// wrapper policies from Reduce eliminate both staleness and out-of-protocol
// states.
func TestVerifyAllMixesSoundWithReduction(t *testing.T) {
	kinds := []coherence.Kind{coherence.MEI, coherence.MSI, coherence.MESI, coherence.MOESI}
	for _, a := range kinds {
		for _, b := range kinds {
			res := explored(t, explore.ModeWrapped, a, b)
			for _, v := range res.Violations {
				t.Errorf("%v+%v: %v", a, b, v)
			}
			if res.States == 0 {
				t.Errorf("%v+%v explored nothing", a, b)
			}
		}
	}
}

// TestVerifyStateElimination checks the specific claims of Sections
// 2.1–2.3: which states become unreachable under each integration.
func TestVerifyStateElimination(t *testing.T) {
	check := func(protos []coherence.Kind, proc int, state coherence.State) {
		t.Helper()
		res := explored(t, explore.ModeWrapped, protos...)
		if res.Reachable[proc].Has(state) {
			t.Errorf("%v: P%d still reaches %v (reachable %v)", protos, proc, state, res.Reachable[proc])
		}
	}
	// 2.1: MEI mixes eliminate S at the MESI/MOESI processor.
	check([]coherence.Kind{coherence.MEI, coherence.MESI}, 1, coherence.Shared)
	check([]coherence.Kind{coherence.MEI, coherence.MOESI}, 1, coherence.Shared)
	check([]coherence.Kind{coherence.MEI, coherence.MOESI}, 1, coherence.Owned)
	// 2.2: MSI mixes eliminate E (and O).
	check([]coherence.Kind{coherence.MSI, coherence.MESI}, 1, coherence.Exclusive)
	check([]coherence.Kind{coherence.MSI, coherence.MOESI}, 1, coherence.Exclusive)
	check([]coherence.Kind{coherence.MSI, coherence.MOESI}, 1, coherence.Owned)
	// 2.3: MESI+MOESI eliminates O (cache-to-cache prohibited).
	check([]coherence.Kind{coherence.MESI, coherence.MOESI}, 1, coherence.Owned)
}

// TestVerifyMESIPlusMOESIKeepsSharing: the 2.3 integration still allows the
// I→S path — it reduces to MESI, not MEI.
func TestVerifyMESIPlusMOESIKeepsSharing(t *testing.T) {
	res := explored(t, explore.ModeWrapped, coherence.MESI, coherence.MOESI)
	if res.Effective != coherence.MESI {
		t.Errorf("effective %v, want MESI", res.Effective)
	}
	if !res.Reachable[0].Has(coherence.Shared) {
		t.Errorf("MESI processor never reached S; integration over-reduced to MEI (reachable %v)", res.Reachable[0])
	}
}

// TestVerifyThreeWayMix: a triple-protocol system reduces soundly too.
func TestVerifyThreeWayMix(t *testing.T) {
	res := explored(t, explore.ModeWrapped, coherence.MEI, coherence.MESI, coherence.MOESI)
	if res.Effective != coherence.MEI {
		t.Fatalf("effective %v, want MEI", res.Effective)
	}
	if len(res.Violations) != 0 {
		t.Errorf("three-way mix: %v", res.Violations[0])
	}
}

// TestVerifyInputValidation: the model checker refuses systems it cannot
// model — no masters, more than MaxMasters, or a wrapped mix Reduce rejects.
func TestVerifyInputValidation(t *testing.T) {
	if _, err := explore.Explore(explore.Config{}); err == nil {
		t.Error("empty processor list accepted")
	}
	too := make([]coherence.Kind, explore.MaxMasters+1)
	for i := range too {
		too[i] = coherence.MEI
	}
	if _, err := explore.Explore(explore.Config{Protocols: too}); err == nil {
		t.Error("too many processors accepted")
	}
	dragonMix := []coherence.Kind{coherence.Dragon, coherence.MESI}
	if _, err := explore.Explore(explore.Config{Protocols: dragonMix, Mode: explore.ModeWrapped}); err == nil {
		t.Error("wrapped Dragon mix accepted")
	}
}

// TestVerifyViolationHasWitnessTrace: violations must carry a replayable
// event trace.
func TestVerifyViolationHasWitnessTrace(t *testing.T) {
	res := explored(t, explore.ModeUnwired, coherence.MESI, coherence.MEI)
	if len(res.Violations) == 0 {
		t.Fatal("no violation found in un-integrated MEI+MESI")
	}
	for _, v := range res.Violations {
		if len(v.Trace) == 0 {
			t.Errorf("violation %v has empty trace", v.Check)
		}
		if v.String() == "" {
			t.Error("violation renders empty")
		}
	}
}

// TestVerifyHomogeneousDragon: the update-based protocol is coherent in a
// homogeneous system, reaches its Sm state, and keeps sharers valid.
func TestVerifyHomogeneousDragon(t *testing.T) {
	protos := []coherence.Kind{coherence.Dragon, coherence.Dragon}
	integ, err := core.Reduce(protos)
	if err != nil {
		t.Fatal(err)
	}
	if integ.Effective != coherence.Dragon {
		t.Fatalf("effective %v", integ.Effective)
	}
	for i, p := range integ.Policies {
		if !p.AllowCacheToCache {
			t.Fatalf("P%d denied c2c", i)
		}
	}
	res := explored(t, explore.ModeWrapped, protos...)
	if len(res.Violations) != 0 {
		t.Fatalf("dragon violations: %v", res.Violations[0])
	}
	if !res.Reachable[0].Has(coherence.Owned) {
		t.Fatal("Sm never reached")
	}
	// Crucially, both processors can hold the line simultaneously with one
	// of them dirty — the update-based signature.
	if !res.Reachable[0].Has(coherence.Shared) {
		t.Fatal("Sc never reached")
	}
}
