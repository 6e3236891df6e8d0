package core

import (
	"fmt"
	"reflect"
	"testing"

	"hetcc/internal/coherence"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		protos []coherence.Kind
		want   PlatformClass
	}{
		{[]coherence.Kind{coherence.None, coherence.None}, PF1},
		{[]coherence.Kind{coherence.MEI, coherence.None}, PF2},
		{[]coherence.Kind{coherence.None, coherence.MESI}, PF2},
		{[]coherence.Kind{coherence.MEI, coherence.MESI}, PF3},
		{[]coherence.Kind{coherence.MOESI}, PF3},
		{[]coherence.Kind{coherence.MEI, coherence.MSI, coherence.None}, PF2},
	}
	for _, c := range cases {
		got, err := Classify(c.protos)
		if err != nil {
			t.Fatalf("%v: %v", c.protos, err)
		}
		if got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.protos, got, c.want)
		}
	}
	if _, err := Classify(nil); err == nil {
		t.Error("Classify(nil) did not error")
	}
}

func TestClassStrings(t *testing.T) {
	if PF1.String() != "PF1" || PF2.String() != "PF2" || PF3.String() != "PF3" {
		t.Error("platform class strings wrong")
	}
}

// TestReduceEffectiveProtocol checks the paper's Section 2 reduction table
// for every pair of protocols.
func TestReduceEffectiveProtocol(t *testing.T) {
	pairs := []struct {
		a, b coherence.Kind
		want coherence.Kind
	}{
		{coherence.MEI, coherence.MEI, coherence.MEI},
		{coherence.MEI, coherence.MSI, coherence.MEI},
		{coherence.MEI, coherence.MESI, coherence.MEI},
		{coherence.MEI, coherence.MOESI, coherence.MEI},
		{coherence.MSI, coherence.MSI, coherence.MSI},
		{coherence.MSI, coherence.MESI, coherence.MSI},
		{coherence.MSI, coherence.MOESI, coherence.MSI},
		{coherence.MESI, coherence.MESI, coherence.MESI},
		{coherence.MESI, coherence.MOESI, coherence.MESI},
		{coherence.MOESI, coherence.MOESI, coherence.MOESI},
	}
	for _, p := range pairs {
		for _, order := range [][]coherence.Kind{{p.a, p.b}, {p.b, p.a}} {
			integ, err := Reduce(order)
			if err != nil {
				t.Fatalf("Reduce(%v): %v", order, err)
			}
			if integ.Effective != p.want {
				t.Errorf("Reduce(%v) effective %v, want %v", order, integ.Effective, p.want)
			}
			if integ.Class != PF3 {
				t.Errorf("Reduce(%v) class %v, want PF3", order, integ.Class)
			}
			if integ.LockCaveat != "" {
				t.Errorf("Reduce(%v) has lock caveat on PF3", order)
			}
		}
	}
}

func TestReduceMEIMixPolicies(t *testing.T) {
	integ, err := Reduce([]coherence.Kind{coherence.MEI, coherence.MESI})
	if err != nil {
		t.Fatal(err)
	}
	// The MESI snooper must convert reads to writes; the MEI side needs no
	// conversion (it has no S state), exactly as the paper notes for the
	// PowerPC755 side.
	if integ.Policies[0].ConvertReadToWrite {
		t.Error("MEI processor got read-to-write conversion (unnecessary)")
	}
	if !integ.Policies[1].ConvertReadToWrite {
		t.Error("MESI processor missing read-to-write conversion")
	}
	for i, p := range integ.Policies {
		if p.Shared != SharedForceDeassert {
			t.Errorf("P%d shared override %v, want force-deassert", i, p.Shared)
		}
		if p.AllowCacheToCache {
			t.Errorf("P%d allows cache-to-cache in a heterogeneous mix", i)
		}
	}
}

func TestReduceMSIMixPolicies(t *testing.T) {
	integ, err := Reduce([]coherence.Kind{coherence.MSI, coherence.MESI, coherence.MOESI})
	if err != nil {
		t.Fatal(err)
	}
	if integ.Effective != coherence.MSI {
		t.Fatalf("effective %v, want MSI", integ.Effective)
	}
	if integ.Policies[0].Shared != SharedPassthrough {
		t.Error("MSI processor should pass the shared signal through")
	}
	if integ.Policies[1].Shared != SharedForceAssert || integ.Policies[1].ConvertReadToWrite {
		t.Errorf("MESI policy %v, want force-assert without conversion", integ.Policies[1])
	}
	if integ.Policies[2].Shared != SharedForceAssert || !integ.Policies[2].ConvertReadToWrite {
		t.Errorf("MOESI policy %v, want force-assert with conversion", integ.Policies[2])
	}
}

func TestReduceMESIMOESIPolicies(t *testing.T) {
	integ, err := Reduce([]coherence.Kind{coherence.MESI, coherence.MOESI})
	if err != nil {
		t.Fatal(err)
	}
	if integ.Effective != coherence.MESI {
		t.Fatalf("effective %v, want MESI", integ.Effective)
	}
	if integ.Policies[0].ConvertReadToWrite {
		t.Error("MESI side should not convert")
	}
	if !integ.Policies[1].ConvertReadToWrite {
		t.Error("MOESI side must convert (prohibits cache-to-cache sharing)")
	}
}

func TestReduceHomogeneousMOESIKeepsC2C(t *testing.T) {
	integ, err := Reduce([]coherence.Kind{coherence.MOESI, coherence.MOESI})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range integ.Policies {
		if !p.AllowCacheToCache {
			t.Errorf("P%d lost cache-to-cache in homogeneous MOESI", i)
		}
		if p.ConvertReadToWrite || p.Shared != SharedPassthrough {
			t.Errorf("P%d policy %v not passthrough", i, p)
		}
	}
}

func TestReduceWithCoherencelessProcessors(t *testing.T) {
	integ, err := Reduce([]coherence.Kind{coherence.MEI, coherence.None})
	if err != nil {
		t.Fatal(err)
	}
	if integ.Class != PF2 {
		t.Errorf("class %v, want PF2", integ.Class)
	}
	if !integ.NeedsSnoopLogic[1] || integ.NeedsSnoopLogic[0] {
		t.Errorf("snoop logic flags %v, want [false true]", integ.NeedsSnoopLogic)
	}
	if integ.LockCaveat == "" {
		t.Error("PF2 integration missing lock caveat")
	}
	if integ.Effective != coherence.MEI {
		t.Errorf("effective %v, want MEI", integ.Effective)
	}
}

func TestReducePF1(t *testing.T) {
	integ, err := Reduce([]coherence.Kind{coherence.None, coherence.None})
	if err != nil {
		t.Fatal(err)
	}
	if integ.Class != PF1 || integ.LockCaveat == "" {
		t.Errorf("PF1 integration: %+v", integ)
	}
	for i, need := range integ.NeedsSnoopLogic {
		if !need {
			t.Errorf("P%d missing snoop logic on PF1", i)
		}
	}
}

func TestPolicyHelpers(t *testing.T) {
	p := WrapperPolicy{ConvertReadToWrite: true, Shared: SharedForceDeassert}
	if p.SnoopOp(coherence.BusRd) != coherence.BusRdX {
		t.Error("conversion missed BusRd")
	}
	if p.SnoopOp(coherence.BusRdX) != coherence.BusRdX || p.SnoopOp(coherence.BusUpgr) != coherence.BusUpgr {
		t.Error("conversion touched non-read ops")
	}
	if p.ApplyShared(true) {
		t.Error("force-deassert did not clear shared")
	}
	p.Shared = SharedForceAssert
	if !p.ApplyShared(false) {
		t.Error("force-assert did not set shared")
	}
	p.Shared = SharedPassthrough
	if p.ApplyShared(true) != true || p.ApplyShared(false) != false {
		t.Error("passthrough altered shared")
	}
}

func TestAllowedStates(t *testing.T) {
	// MSI in an MEI mix keeps its (exclusive-behaving) S state.
	got := AllowedStates(coherence.MSI, coherence.MEI)
	if want := coherence.SetOf(coherence.Invalid, coherence.Shared, coherence.Modified); got != want {
		t.Fatalf("AllowedStates(MSI, MEI) = %v, want %v", got, want)
	}
	// MESI in an MEI mix loses S.
	if AllowedStates(coherence.MESI, coherence.MEI).Has(coherence.Shared) {
		t.Error("MESI in MEI mix still allows S")
	}
	// MOESI in an MSI mix loses E and O.
	for _, s := range []coherence.State{coherence.Exclusive, coherence.Owned} {
		if AllowedStates(coherence.MOESI, coherence.MSI).Has(s) {
			t.Errorf("MOESI in MSI mix still allows %v", s)
		}
	}
}

// TestCountCopies pins the copy census and its two verdicts on the line
// vectors the auditor and the explorer report.
func TestCountCopies(t *testing.T) {
	I, S, E, M, O := coherence.Invalid, coherence.Shared, coherence.Exclusive, coherence.Modified, coherence.Owned
	cases := []struct {
		states      []coherence.State
		want        Copies
		swmr, owner bool
	}{
		{[]coherence.State{I, I}, Copies{Writer: -1, Owner: -1}, true, true},
		{[]coherence.State{S, I, S}, Copies{Valid: 2, Writer: -1, Owner: -1}, true, true},
		{[]coherence.State{I, M}, Copies{Valid: 1, Writable: 1, Dirty: 1, Writer: 1, Owner: 1}, true, true},
		{[]coherence.State{E, S}, Copies{Valid: 2, Writable: 1, Writer: 0, Owner: -1}, false, true},
		{[]coherence.State{E, E}, Copies{Valid: 2, Writable: 2, Writer: 1, Owner: -1}, false, true},
		{[]coherence.State{O, S}, Copies{Valid: 2, Dirty: 1, Writer: -1, Owner: 0}, true, true},
		{[]coherence.State{O, M}, Copies{Valid: 2, Writable: 1, Dirty: 2, Writer: 1, Owner: 1}, false, false},
	}
	for _, c := range cases {
		got := CountCopies(c.states)
		if got != c.want || got.SWMR() != c.swmr || got.SingleOwner() != c.owner {
			t.Errorf("CountCopies(%v) = %+v swmr %v owner %v, want %+v swmr %v owner %v",
				c.states, got, got.SWMR(), got.SingleOwner(), c.want, c.swmr, c.owner)
		}
	}
}

// TestAllowedStatesUnreduced: a coherence-less cache behaves as a private
// MEI cache, and a protocol left at its own effective protocol keeps every
// native state.
func TestAllowedStatesUnreduced(t *testing.T) {
	cases := []struct {
		native, effective coherence.Kind
		want              coherence.StateSet
	}{
		{coherence.None, coherence.MESI, coherence.SetOf(coherence.Invalid, coherence.Exclusive, coherence.Modified)},
		{coherence.MOESI, coherence.MOESI, coherence.New(coherence.MOESI).States()},
		{coherence.Dragon, coherence.Dragon, coherence.New(coherence.Dragon).States()},
	}
	for _, c := range cases {
		got := AllowedStates(c.native, c.effective)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("AllowedStates(%v, %v) = %v, want %v", c.native, c.effective, got, c.want)
		}
	}
}

// TestReduceRejectsDragonMixes: the paper's wrapper method covers
// invalidation-based protocols only.
func TestReduceRejectsDragonMixes(t *testing.T) {
	bad := [][]coherence.Kind{
		{coherence.Dragon, coherence.MESI},
		{coherence.MEI, coherence.Dragon},
		{coherence.Dragon, coherence.MOESI},
		{coherence.Dragon, coherence.None}, // PF2 with Dragon: also out of scope
	}
	for _, protos := range bad {
		if _, err := Reduce(protos); err == nil {
			t.Errorf("Reduce(%v) accepted an update-based mix", protos)
		}
	}
}

// TestStrings pins the names protocheck prints in its policy columns.
func TestStrings(t *testing.T) {
	cases := []struct {
		got  fmt.Stringer
		want string
	}{
		{SharedPassthrough, "passthrough"},
		{SharedForceAssert, "force-assert"},
		{SharedForceDeassert, "force-deassert"},
		{SharedOverride(9), "SharedOverride(9)"},
		{WrapperPolicy{}, "{rd→wr:false shared:passthrough c2c:false}"},
		{WrapperPolicy{ConvertReadToWrite: true, Shared: SharedForceDeassert, AllowCacheToCache: true}, "{rd→wr:true shared:force-deassert c2c:true}"},
		{PlatformClass(0), "PlatformClass(0)"},
	}
	for _, c := range cases {
		if s := c.got.String(); s != c.want {
			t.Errorf("String() = %q, want %q", s, c.want)
		}
	}
}
