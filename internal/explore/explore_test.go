package explore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/snooplogic"
)

var allKinds = []coherence.Kind{
	coherence.MEI, coherence.MSI, coherence.MESI,
	coherence.MOESI, coherence.Dragon, coherence.None,
}

// pairs returns every 2-master protocol multiset.
func pairs() [][]coherence.Kind {
	var out [][]coherence.Kind
	for i, a := range allKinds {
		for _, b := range allKinds[i:] {
			out = append(out, []coherence.Kind{a, b})
		}
	}
	return out
}

// TestWrappedPairsProved is the proof obligation: for every 2-master pair
// the reduction accepts, the full reachable state space contains zero
// invariant violations and the sweep is complete (no frontier overflow).
func TestWrappedPairsProved(t *testing.T) {
	accepted := 0
	for _, kinds := range pairs() {
		res, err := Explore(Config{Protocols: kinds, Mode: ModeWrapped})
		if err != nil {
			// The paper's method rejects Dragon heterogeneity — that must be
			// the only reason a pair fails to explore.
			if !strings.Contains(err.Error(), "Dragon") {
				t.Errorf("%v: unexpected reduction error: %v", kinds, err)
			}
			continue
		}
		accepted++
		if !res.Complete {
			t.Errorf("%v: incomplete sweep (%d dropped)", kinds, res.Dropped)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%v: wrapped system violated invariants: %v", kinds, res.Violations[0])
			for _, l := range res.Violations[0].Trace {
				t.Log(l)
			}
		}
		if res.States == 0 || res.Transitions == 0 || res.FrontierPeak == 0 {
			t.Errorf("%v: empty census %+v", kinds, res)
		}
	}
	if accepted < 15 {
		t.Errorf("only %d pairs accepted; the matrix should accept all but Dragon mixes", accepted)
	}
}

// TestWrappedTriplesProved extends the proof to 3-master samples covering
// every platform class and the widest protocol span.
func TestWrappedTriplesProved(t *testing.T) {
	for _, c := range []struct {
		kinds     []coherence.Kind
		effective coherence.Kind
	}{
		{[]coherence.Kind{coherence.None, coherence.None, coherence.None}, coherence.MEI},
		{[]coherence.Kind{coherence.MEI, coherence.MESI, coherence.None}, coherence.MEI},
		{[]coherence.Kind{coherence.MEI, coherence.MESI, coherence.MOESI}, coherence.MEI},
		{[]coherence.Kind{coherence.MEI, coherence.MSI, coherence.MOESI}, coherence.MEI},
		{[]coherence.Kind{coherence.MSI, coherence.MESI, coherence.MOESI}, coherence.MSI},
		{[]coherence.Kind{coherence.MESI, coherence.MESI, coherence.MOESI}, coherence.MESI},
		{[]coherence.Kind{coherence.MOESI, coherence.MOESI, coherence.MOESI}, coherence.MOESI},
		{[]coherence.Kind{coherence.Dragon, coherence.Dragon, coherence.Dragon}, coherence.Dragon},
		{[]coherence.Kind{coherence.MOESI, coherence.None, coherence.None}, coherence.MEI},
	} {
		checkProved(t, c.kinds, c.effective)
	}
}

// TestWrappedQuadsProved proves the 4-master mixes the simulator runs: the
// heterogeneous scaling mix of BenchmarkScalingProcessors, a PF1 platform
// and a homogeneous MOESI system with cache-to-cache sharing.
func TestWrappedQuadsProved(t *testing.T) {
	for _, c := range []struct {
		kinds     []coherence.Kind
		effective coherence.Kind
	}{
		{[]coherence.Kind{coherence.MEI, coherence.MESI, coherence.MOESI, coherence.MSI}, coherence.MEI},
		{[]coherence.Kind{coherence.None, coherence.None, coherence.None, coherence.None}, coherence.MEI},
		{[]coherence.Kind{coherence.MOESI, coherence.MOESI, coherence.MOESI, coherence.MOESI}, coherence.MOESI},
	} {
		checkProved(t, c.kinds, c.effective)
	}
}

// checkProved explores kinds wrapped and requires a complete, violation-free
// sweep under the expected effective protocol.
func checkProved(t *testing.T, kinds []coherence.Kind, effective coherence.Kind) {
	t.Helper()
	res, err := Explore(Config{Protocols: kinds, Mode: ModeWrapped})
	if err != nil {
		t.Fatalf("%v: %v", kinds, err)
	}
	if res.Effective != effective {
		t.Errorf("%v: effective %v, want %v", kinds, res.Effective, effective)
	}
	if !res.Complete || len(res.Violations) != 0 {
		t.Errorf("%v: complete=%v violations=%d", kinds, res.Complete, len(res.Violations))
	}
}

// TestEliminatedStates checks the reduction table's headline eliminations
// state-by-state, matching the paper's Section 2 claims.
func TestEliminatedStates(t *testing.T) {
	cases := []struct {
		kinds      []coherence.Kind
		master     int
		eliminated []coherence.State
		kept       []coherence.State
	}{
		// MEI mix: S and O disappear everywhere.
		{[]coherence.Kind{coherence.MEI, coherence.MESI}, 1, []coherence.State{coherence.Shared}, nil},
		{[]coherence.Kind{coherence.MEI, coherence.MOESI}, 1, []coherence.State{coherence.Shared, coherence.Owned}, nil},
		// MSI mix: E disappears on the MESI/MOESI side, M→O never fires.
		{[]coherence.Kind{coherence.MSI, coherence.MESI}, 1, []coherence.State{coherence.Exclusive}, nil},
		{[]coherence.Kind{coherence.MSI, coherence.MOESI}, 1, []coherence.State{coherence.Exclusive, coherence.Owned}, nil},
		// MESI+MOESI: only O disappears; the I→S path via the shared signal
		// remains, so the mix reduces to MESI, not MEI.
		{[]coherence.Kind{coherence.MESI, coherence.MOESI}, 1, []coherence.State{coherence.Owned}, nil},
		{[]coherence.Kind{coherence.MESI, coherence.MOESI}, 0, nil, []coherence.State{coherence.Shared}},
		// Homogeneous systems keep their native protocol: MOESI reaches O
		// with cache-to-cache sharing on, and the update-based Dragon
		// reaches both Sm (O) and Sc (S).
		{[]coherence.Kind{coherence.MOESI, coherence.MOESI}, 0, nil, []coherence.State{coherence.Owned}},
		{[]coherence.Kind{coherence.Dragon, coherence.Dragon}, 0, nil, []coherence.State{coherence.Owned, coherence.Shared}},
		// PF2 with a shared-state protocol: the implicit MEI of the
		// coherence-less cache removes S (the defect the explorer found).
		{[]coherence.Kind{coherence.MESI, coherence.None}, 0, []coherence.State{coherence.Shared}, nil},
		{[]coherence.Kind{coherence.MOESI, coherence.None}, 0, []coherence.State{coherence.Shared, coherence.Owned}, nil},
	}
	for _, c := range cases {
		res, err := Explore(Config{Protocols: c.kinds, Mode: ModeWrapped})
		if err != nil {
			t.Fatalf("%v: %v", c.kinds, err)
		}
		for _, s := range c.eliminated {
			if res.Reachable[c.master].Has(s) {
				t.Errorf("%v: P%d still reaches %v: %v", c.kinds, c.master, s, res.Reachable[c.master])
			}
		}
		for _, s := range c.kept {
			if !res.Reachable[c.master].Has(s) {
				t.Errorf("%v: P%d never reaches %v: %v", c.kinds, c.master, s, res.Reachable[c.master])
			}
		}
	}
}

// TestUnwiredPositiveControl: without the wrappers the heterogeneous mixes
// must violate the invariants (otherwise the explorer could not detect a
// broken reduction), while mixes that never needed the shared signal stay
// clean even unwired — exactly the paper's claim about which wirings matter.
func TestUnwiredPositiveControl(t *testing.T) {
	// check/master, when set, name a violation the mix must exhibit.
	mustViolate := []struct {
		kinds  []coherence.Kind
		check  string
		master int
	}{
		{[]coherence.Kind{coherence.MEI, coherence.MESI}, "", 0},
		// The paper's Table 2: the MESI copy is read stale.
		{[]coherence.Kind{coherence.MESI, coherence.MEI}, core.CheckStaleRead, 0},
		{[]coherence.Kind{coherence.MEI, coherence.MOESI}, "", 0},
		{[]coherence.Kind{coherence.MSI, coherence.MESI}, "", 0},  // the paper's Table 3
		{[]coherence.Kind{coherence.MESI, coherence.MESI}, "", 0}, // E dupes without the shared wire
		{[]coherence.Kind{coherence.MOESI, coherence.MOESI}, "", 0},
		{[]coherence.Kind{coherence.MESI, coherence.None}, "", 0},
		{[]coherence.Kind{coherence.Dragon, coherence.MESI}, "", 0},
		{[]coherence.Kind{coherence.Dragon, coherence.Dragon}, "", 0}, // ownership needs the shared wire
	}
	for _, c := range mustViolate {
		res, err := Explore(Config{Protocols: c.kinds, Mode: ModeUnwired})
		if err != nil {
			t.Fatalf("%v: %v", c.kinds, err)
		}
		if len(res.Violations) == 0 {
			t.Errorf("%v: unwired system found coherent — positive control broken", c.kinds)
			continue
		}
		for _, v := range res.Violations {
			if len(v.Path) == 0 || len(v.Trace) != len(v.Path)+1 {
				t.Errorf("%v: counterexample not replayable: path %v trace %d lines", c.kinds, v.Path, len(v.Trace))
			}
		}
		if c.check != "" && !hasViolation(res, c.check, c.master) {
			t.Errorf("%v: no %s at P%d; got %v", c.kinds, c.check, c.master, res.Violations)
		}
	}

	// MEI never uses the shared signal and the TAG-CAM drains don't either:
	// these stay coherent with no wrappers at all.
	mustHold := [][]coherence.Kind{
		{coherence.MEI, coherence.MEI},
		{coherence.MEI, coherence.None},
		{coherence.None, coherence.None},
		{coherence.MSI, coherence.MSI}, // MSI ignores the shared signal too
	}
	for _, kinds := range mustHold {
		res, err := Explore(Config{Protocols: kinds, Mode: ModeUnwired})
		if err != nil {
			t.Fatalf("%v: %v", kinds, err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%v: expected coherent without wrappers, got %v", kinds, res.Violations[0])
		}
	}
}

func hasViolation(res *Result, check string, master int) bool {
	for _, v := range res.Violations {
		if v.Check == check && v.Master == master {
			return true
		}
	}
	return false
}

// TestCounterexampleDeterminism: the same configuration must yield the same
// first counterexample, trace included — BFS order is fixed, so the whole
// census is a deterministic function of the config.
func TestCounterexampleDeterminism(t *testing.T) {
	cfg := Config{Protocols: []coherence.Kind{coherence.MEI, coherence.MESI}, Mode: ModeUnwired}
	a, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two explorations of one config differ")
	}
}

// TestNoneMastersStayInMEIStates: coherence-less masters hold only I/E/M in
// every mode, and in the snooping modes a valid copy always has its CAM
// entry (the mirror property) — the census proves it, not just samples it.
func TestNoneMastersStayInMEIStates(t *testing.T) {
	for _, mode := range []Mode{ModeWrapped, ModeUnwired, ModeNoSnoop} {
		res, err := Explore(Config{Protocols: []coherence.Kind{coherence.None, coherence.MEI}, Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for _, s := range res.Reachable[0].States() {
			if s == coherence.Shared || s == coherence.Owned {
				t.Errorf("%v: None master reached %v", mode, s)
			}
		}
		for _, v := range res.Violations {
			if v.Check == CheckCAMMirror {
				t.Errorf("%v: CAM mirror property violated: %v", mode, v)
			}
		}
	}
}

// TestFrontierOverflowAccounting: a tiny bound must surface as an incomplete
// census with dropped-state accounting, never a silent truncation.
func TestFrontierOverflowAccounting(t *testing.T) {
	res, err := Explore(Config{
		Protocols: []coherence.Kind{coherence.MESI, coherence.MESI},
		Mode:      ModeWrapped,
		MaxStates: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Error("bounded sweep reported complete")
	}
	if res.Dropped == 0 {
		t.Error("no dropped states counted")
	}
	if res.States > 4 {
		t.Errorf("visited %d states past the bound", res.States)
	}
}

// TestGraphDump: the JSONL state graph lists every expanded state once, in
// discovery order, with edges that resolve to explored states (or -1 for
// dropped successors).
func TestGraphDump(t *testing.T) {
	var buf bytes.Buffer
	res, err := Explore(Config{
		Protocols: []coherence.Kind{coherence.MEI, coherence.None},
		Mode:      ModeWrapped,
		Graph:     &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		ID      int32 `json:"id"`
		Masters []struct {
			Protocol string `json:"protocol"`
			State    string `json:"state"`
		} `json:"masters"`
		Edges []struct {
			Action string `json:"action"`
			To     int32  `json:"to"`
		} `json:"edges"`
	}
	sc := bufio.NewScanner(&buf)
	var n int32
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if r.ID != n {
			t.Fatalf("line %d has id %d: not discovery order", n, r.ID)
		}
		if len(r.Masters) != 2 || r.Masters[1].Protocol != "none" {
			t.Fatalf("line %d masters %v", n, r.Masters)
		}
		for _, e := range r.Edges {
			if e.To < -1 || e.To >= int32(res.States) || e.Action == "" {
				t.Fatalf("line %d: bad edge %+v", n, e)
			}
		}
		n++
	}
	if int(n) != res.States {
		t.Fatalf("dumped %d states, census says %d", n, res.States)
	}
}

// TestSnoopLogicTableConsistency pins the properties the explorer's atomic
// ISR-drain abstraction relies on to the transition relation snooplogic
// exports (which its own mirror test pins to the implementation):
//
//  1. a foreign transaction never completes while the line may be resident
//     (every shadowed or pending guard retries), so collapsing ARTRY → ISR →
//     retry into one atomic action loses no interleavings that matter;
//  2. the ISR always terminates with the line unshadowed and un-pending;
//  3. fills insert CAM entries and write-backs remove them, so CAM ⊇
//     residency (the cam-mirror invariant the explorer checks).
func TestSnoopLogicTableConsistency(t *testing.T) {
	hit, ok := snooplogic.Lookup(true, false, snooplogic.EvForeignMatch)
	if !ok || !hit.Retry || !hit.RaiseFIQ || !hit.NextPending {
		t.Fatalf("foreign-hit rule %+v: want retry+FIQ+pending", hit)
	}
	for _, r := range snooplogic.Table() {
		if r.Event == snooplogic.EvForeignMatch && (r.CAM || r.Pending) && !r.Retry {
			t.Errorf("rule %q lets a foreign access complete on a shadowed line", r.Name)
		}
		if r.Event == snooplogic.EvISRComplete && (r.NextCAM || r.NextPending) {
			t.Errorf("rule %q leaves ISR state behind", r.Name)
		}
		if r.Event == snooplogic.EvOwnFill && !r.NextCAM {
			t.Errorf("rule %q: fill did not shadow the line", r.Name)
		}
		if r.Event == snooplogic.EvOwnWriteBack && r.NextCAM {
			t.Errorf("rule %q: write-back left the CAM entry", r.Name)
		}
	}
	miss, ok := snooplogic.Lookup(false, false, snooplogic.EvForeignMatch)
	if !ok || miss.Retry || miss.RaiseFIQ {
		t.Fatalf("foreign-miss rule %+v: must pass through", miss)
	}
}

// TestRejectsBadConfigs: master-count limits and Dragon mixes error cleanly.
func TestRejectsBadConfigs(t *testing.T) {
	if _, err := Explore(Config{Protocols: nil}); err == nil {
		t.Error("empty protocol list accepted")
	}
	if _, err := Explore(Config{Protocols: make([]coherence.Kind, MaxMasters+1)}); err == nil {
		t.Error("oversized master list accepted")
	}
	if _, err := Explore(Config{Protocols: []coherence.Kind{coherence.Dragon, coherence.MESI}, Mode: ModeWrapped}); err == nil {
		t.Error("Dragon mix accepted in wrapped mode")
	}
	// The same mix is explorable unwired: that is how the matrix shows why
	// the reduction rejects it.
	res, err := Explore(Config{Protocols: []coherence.Kind{coherence.Dragon, coherence.MESI}, Mode: ModeUnwired})
	if err != nil {
		t.Fatalf("unwired Dragon mix: %v", err)
	}
	if len(res.Violations) == 0 {
		t.Error("unwired Dragon mix found coherent")
	}
}
