package coherence

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func all() []Kind { return []Kind{MEI, MSI, MESI, MOESI} }

func TestStateStrings(t *testing.T) {
	want := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", Owned: "O"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d renders %q, want %q", s, s.String(), w)
		}
	}
}

func TestStatePredicates(t *testing.T) {
	if Invalid.Valid() {
		t.Error("I counts as valid")
	}
	for _, s := range []State{Shared, Exclusive, Modified, Owned} {
		if !s.Valid() {
			t.Errorf("%v not valid", s)
		}
	}
	for _, s := range []State{Modified, Owned} {
		if !s.Dirty() {
			t.Errorf("%v not dirty", s)
		}
	}
	for _, s := range []State{Invalid, Shared, Exclusive} {
		if s.Dirty() {
			t.Errorf("%v dirty", s)
		}
	}
}

// TestStateSet pins the set's membership, protocol order and rendering.
func TestStateSet(t *testing.T) {
	var m StateSet
	if m.Has(Invalid) || m.String() != "{}" {
		t.Fatalf("zero set = %v", m)
	}
	m.Add(Owned)
	m.Add(Shared)
	m.Add(Invalid)
	if !m.Has(Shared) || m.Has(Exclusive) {
		t.Fatalf("membership wrong in %v", m)
	}
	if m != SetOf(Owned, Invalid, Shared) || m.String() != "{I,S,O}" {
		t.Fatalf("set = %v, want {I,S,O}", m)
	}
	if got := SetOf(Modified, Exclusive).States(); len(got) != 2 || got[0] != Exclusive || got[1] != Modified {
		t.Fatalf("States() = %v, want [E M]", got)
	}
}

func TestProtocolStateSets(t *testing.T) {
	want := map[Kind][]State{
		MEI:   {Invalid, Exclusive, Modified},
		MSI:   {Invalid, Shared, Modified},
		MESI:  {Invalid, Shared, Exclusive, Modified},
		MOESI: {Invalid, Shared, Exclusive, Modified, Owned},
	}
	for k, states := range want {
		p := New(k)
		if got := p.States().States(); len(got) != len(states) {
			t.Errorf("%v has %d states, want %d", k, len(got), len(states))
		}
		for _, s := range states {
			if !p.Has(s) {
				t.Errorf("%v missing state %v", k, s)
			}
		}
	}
}

func TestNewPanicsOnNone(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(None) did not panic")
		}
	}()
	New(None)
}

func TestFillStates(t *testing.T) {
	// MEI ignores the shared signal; MSI always allocates Shared; MESI and
	// MOESI pick E/S from the shared signal.
	cases := []struct {
		k      Kind
		shared bool
		want   State
	}{
		{MEI, false, Exclusive}, {MEI, true, Exclusive},
		{MSI, false, Shared}, {MSI, true, Shared},
		{MESI, false, Exclusive}, {MESI, true, Shared},
		{MOESI, false, Exclusive}, {MOESI, true, Shared},
	}
	for _, c := range cases {
		if got := New(c.k).FillStateAfterRead(c.shared); got != c.want {
			t.Errorf("%v fill(shared=%v) = %v, want %v", c.k, c.shared, got, c.want)
		}
	}
	for _, k := range all() {
		if got := New(k).FillStateAfterWrite(); got != Modified {
			t.Errorf("%v write fill = %v, want M", k, got)
		}
	}
}

func TestWriteHitTransitions(t *testing.T) {
	cases := []struct {
		k        Kind
		from, to State
		needsBus bool
	}{
		{MEI, Exclusive, Modified, false},
		{MEI, Modified, Modified, false},
		{MSI, Shared, Modified, true},
		{MSI, Modified, Modified, false},
		{MESI, Shared, Modified, true},
		{MESI, Exclusive, Modified, false},
		{MESI, Modified, Modified, false},
		{MOESI, Shared, Modified, true},
		{MOESI, Owned, Modified, true},
		{MOESI, Exclusive, Modified, false},
		{MOESI, Modified, Modified, false},
	}
	for _, c := range cases {
		next, op, needsBus, err := New(c.k).OnWriteHit(c.from)
		if err != nil {
			t.Errorf("%v write hit %v: %v", c.k, c.from, err)
			continue
		}
		if next != c.to || needsBus != c.needsBus {
			t.Errorf("%v write hit %v -> %v bus=%v, want %v bus=%v", c.k, c.from, next, needsBus, c.to, c.needsBus)
		}
		if needsBus && op != BusUpgr {
			t.Errorf("%v write hit %v issues %v, want BusUpgr", c.k, c.from, op)
		}
	}
}

func TestWriteHitInvalidStateErrors(t *testing.T) {
	for _, k := range all() {
		if _, _, _, err := New(k).OnWriteHit(Invalid); err == nil {
			t.Errorf("%v write hit in I did not error", k)
		}
	}
	// States foreign to the protocol must error too.
	if _, _, _, err := New(MEI).OnWriteHit(Shared); err == nil {
		t.Error("MEI write hit in S did not error")
	}
	if _, _, _, err := New(MESI).OnWriteHit(Owned); err == nil {
		t.Error("MESI write hit in O did not error")
	}
}

func TestMEISnoopInvalidatesEverything(t *testing.T) {
	p := New(MEI)
	for _, op := range []BusOp{BusRd, BusRdX, BusUpgr} {
		out, err := p.OnSnoop(Exclusive, op)
		if err != nil {
			t.Fatal(err)
		}
		if out.Next != Invalid || out.Flush {
			t.Errorf("MEI E snoop %v -> %+v, want clean invalidate", op, out)
		}
		out, err = p.OnSnoop(Modified, op)
		if err != nil {
			t.Fatal(err)
		}
		if out.Next != Invalid || !out.Flush {
			t.Errorf("MEI M snoop %v -> %+v, want flush+invalidate", op, out)
		}
	}
}

func TestMSISnoopTable(t *testing.T) {
	p := New(MSI)
	out, _ := p.OnSnoop(Modified, BusRd)
	if out.Next != Shared || !out.Flush || !out.AssertShared {
		t.Errorf("MSI M snoop BusRd -> %+v, want flush to S with shared", out)
	}
	out, _ = p.OnSnoop(Shared, BusRd)
	if out.Next != Shared || !out.AssertShared {
		t.Errorf("MSI S snoop BusRd -> %+v, want stay S with shared", out)
	}
	out, _ = p.OnSnoop(Shared, BusRdX)
	if out.Next != Invalid {
		t.Errorf("MSI S snoop BusRdX -> %+v, want I", out)
	}
	out, _ = p.OnSnoop(Shared, BusUpgr)
	if out.Next != Invalid {
		t.Errorf("MSI S snoop BusUpgr -> %+v, want I", out)
	}
}

func TestMESISnoopTable(t *testing.T) {
	p := New(MESI)
	out, _ := p.OnSnoop(Exclusive, BusRd)
	if out.Next != Shared || !out.AssertShared || out.Flush {
		t.Errorf("MESI E snoop BusRd -> %+v, want E->S shared", out)
	}
	out, _ = p.OnSnoop(Modified, BusRd)
	if out.Next != Shared || !out.Flush {
		t.Errorf("MESI M snoop BusRd -> %+v, want flush M->S", out)
	}
	out, _ = p.OnSnoop(Modified, BusRdX)
	if out.Next != Invalid || !out.Flush {
		t.Errorf("MESI M snoop BusRdX -> %+v, want flush M->I", out)
	}
	// The paper's read-to-write conversion: presenting BusRdX instead of
	// BusRd prevents the E->S transition entirely.
	out, _ = p.OnSnoop(Exclusive, BusRdX)
	if out.Next != Invalid {
		t.Errorf("MESI E snoop BusRdX -> %+v, want I (S eliminated)", out)
	}
}

func TestMOESISnoopTable(t *testing.T) {
	p := New(MOESI)
	out, _ := p.OnSnoop(Modified, BusRd)
	if out.Next != Owned || !out.Supply || !out.AssertShared {
		t.Errorf("MOESI M snoop BusRd -> %+v, want M->O supply", out)
	}
	out, _ = p.OnSnoop(Owned, BusRd)
	if out.Next != Owned || !out.Supply {
		t.Errorf("MOESI O snoop BusRd -> %+v, want stay O supply", out)
	}
	out, _ = p.OnSnoop(Owned, BusRdX)
	if out.Next != Invalid || !out.Supply {
		t.Errorf("MOESI O snoop BusRdX -> %+v, want supply + I", out)
	}
	// Conversion blocks M->O: a converted read looks like BusRdX.
	out, _ = p.OnSnoop(Modified, BusRdX)
	if out.Next == Owned {
		t.Errorf("MOESI M snoop BusRdX entered O despite conversion")
	}
	if !p.CacheToCache() {
		t.Error("MOESI must support cache-to-cache")
	}
	for _, k := range []Kind{MEI, MSI, MESI} {
		if New(k).CacheToCache() {
			t.Errorf("%v claims cache-to-cache", k)
		}
	}
}

func TestSnoopInInvalidIsNoOp(t *testing.T) {
	for _, k := range all() {
		for _, op := range []BusOp{BusRd, BusRdX, BusUpgr} {
			out, err := New(k).OnSnoop(Invalid, op)
			if err != nil {
				t.Fatalf("%v snoop in I: %v", k, err)
			}
			if out.Next != Invalid || out.Flush || out.Supply || out.AssertShared {
				t.Errorf("%v snoop %v in I -> %+v, want no-op", k, op, out)
			}
		}
	}
}

func TestSnoopForeignStateErrors(t *testing.T) {
	if _, err := New(MEI).OnSnoop(Shared, BusRd); err == nil {
		t.Error("MEI snoop in S did not error")
	}
	if _, err := New(MSI).OnSnoop(Owned, BusRd); err == nil {
		t.Error("MSI snoop in O did not error")
	}
}

// TestSnoopClosure: snoop transitions never leave the protocol's state set,
// never assert shared when invalidating on a write, and only dirty states
// flush or supply.
func TestSnoopClosure(t *testing.T) {
	f := func(kRaw, sRaw, opRaw uint8) bool {
		k := all()[int(kRaw)%4]
		p := New(k)
		states := p.States().States()
		s := states[int(sRaw)%len(states)]
		op := []BusOp{BusRd, BusRdX, BusUpgr}[int(opRaw)%3]
		out, err := p.OnSnoop(s, op)
		if err != nil {
			return false
		}
		if !p.Has(out.Next) {
			return false
		}
		if (out.Flush || out.Supply) && !s.Dirty() {
			return false
		}
		// A snooped write always ends in Invalid.
		if op == BusRdX && out.Next != Invalid {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadHitNeverChangesState covers OnReadHit across protocols.
func TestReadHitNeverChangesState(t *testing.T) {
	for _, k := range all() {
		p := New(k)
		for _, s := range p.States().States() {
			if s == Invalid {
				if _, err := p.OnReadHit(s); err == nil {
					t.Errorf("%v read hit in I did not error", k)
				}
				continue
			}
			next, err := p.OnReadHit(s)
			if err != nil || next != s {
				t.Errorf("%v read hit %v -> %v, %v", k, s, next, err)
			}
		}
	}
}

func TestKindAndOpStrings(t *testing.T) {
	if MEI.String() != "MEI" || None.String() != "none" {
		t.Error("kind strings wrong")
	}
	if BusRd.String() != "BusRd" || BusRdX.String() != "BusRdX" || BusUpgr.String() != "BusUpgr" {
		t.Error("bus op strings wrong")
	}
	if !strings.Contains(Kind(42).String(), "42") || !strings.Contains(BusOp(42).String(), "42") {
		t.Error("unknown enums don't include value")
	}
	if !strings.Contains(State(42).String(), "42") {
		t.Error("unknown state doesn't include value")
	}
}

func TestTransitionsCoverProtocol(t *testing.T) {
	for _, k := range []Kind{MEI, MSI, MESI, MOESI, Dragon} {
		p := New(k)
		trs := p.Transitions()
		if len(trs) == 0 {
			t.Fatalf("%v: no transitions", k)
		}
		states := map[State]bool{}
		for _, tr := range trs {
			if !p.Has(tr.From) || !p.Has(tr.To) {
				t.Fatalf("%v: edge %v->%v uses foreign state", k, tr.From, tr.To)
			}
			states[tr.From] = true
			states[tr.To] = true
			if tr.Label() == "" {
				t.Fatalf("%v: empty label on %v->%v", k, tr.From, tr.To)
			}
		}
		// Every protocol state appears on some edge.
		for _, s := range p.States().States() {
			if !states[s] {
				t.Errorf("%v: state %v unreachable in the diagram", k, s)
			}
		}
	}
}

func TestDotIsWellFormed(t *testing.T) {
	for _, k := range []Kind{MEI, MESI, Dragon} {
		d := New(k).Dot()
		if !strings.HasPrefix(d, "digraph "+k.String()) || !strings.HasSuffix(d, "}\n") {
			t.Fatalf("%v dot malformed:\n%s", k, d)
		}
		if !strings.Contains(d, "->") {
			t.Fatalf("%v dot has no edges", k)
		}
	}
}

// TestDenseTablesMatchMaps: for every protocol, state and bus op, including
// out-of-range ones, the dense lookups give the result and the error the
// map literals define.
func TestDenseTablesMatchMaps(t *testing.T) {
	for _, k := range []Kind{MEI, MSI, MESI, MOESI, Dragon} {
		p := New(k)
		for s := State(0); int(s) <= numStates+1; s++ {
			e, ok := p.writeHit[s]
			next, op, bus, err := p.OnWriteHit(s)
			if (err == nil) != ok {
				t.Errorf("%v write hit %v: err %v, map defines it: %v", k, s, err, ok)
			} else if ok && (next != e.next || op != e.op || bus != e.bus) {
				t.Errorf("%v write hit %v: got (%v,%v,%v), map says %+v", k, s, next, op, bus, e)
			} else if !ok && err.Error() != fmt.Sprintf("coherence: %v write hit in state %v", k, s) {
				t.Errorf("%v write hit %v: error %q", k, s, err)
			}
			for o := BusOp(0); int(o) <= numBusOps+1; o++ {
				got, err := p.OnSnoop(s, o)
				row, rowOK := p.snoop[s]
				want, opOK := row[o]
				var wantErr string
				switch {
				case s == Invalid:
					want, opOK = SnoopOutcome{Next: Invalid}, true
				case !rowOK:
					wantErr = fmt.Sprintf("coherence: %v snoop in foreign state %v", k, s)
				case !opOK:
					wantErr = fmt.Sprintf("coherence: %v has no snoop transition for %v in %v", k, o, s)
				}
				switch {
				case wantErr != "" && (err == nil || err.Error() != wantErr):
					t.Errorf("%v snoop %v in %v: err %v, want %q", k, o, s, err, wantErr)
				case wantErr == "" && (err != nil || got != want):
					t.Errorf("%v snoop %v in %v: got %+v, %v; map says %+v", k, o, s, got, err, want)
				}
			}
		}
	}
}
