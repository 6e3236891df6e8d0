package core

import (
	"fmt"
	"testing"

	"hetcc/internal/coherence"
)

// allKinds is every protocol vector element Classify can see, including the
// update-based Dragon (which counts as coherence hardware even though Reduce
// refuses to mix it) and the no-hardware marker None.
var allKinds = []coherence.Kind{
	coherence.None, coherence.MEI, coherence.MSI,
	coherence.MESI, coherence.MOESI, coherence.Dragon,
}

// wantClass is the Table 1 rule stated independently of the implementation:
// PF1 when no processor has coherence hardware, PF3 when all do, PF2
// otherwise.
func wantClass(protocols []coherence.Kind) PlatformClass {
	withHW := 0
	for _, k := range protocols {
		if k != coherence.None {
			withHW++
		}
	}
	switch withHW {
	case 0:
		return PF1
	case len(protocols):
		return PF3
	default:
		return PF2
	}
}

// TestClassifyNamedVectors pins the classification of the paper's platforms
// and the corner vectors by name, so a failure reads as the exact platform
// that misclassified.
func TestClassifyNamedVectors(t *testing.T) {
	cases := []struct {
		name   string
		protos []coherence.Kind
		want   PlatformClass
	}{
		{"PF1 paper: ARM920T+ARM920T", []coherence.Kind{coherence.None, coherence.None}, PF1},
		{"PF2 paper: PowerPC755+ARM920T", []coherence.Kind{coherence.MEI, coherence.None}, PF2},
		{"PF3 paper: PowerPC755+Intel486", []coherence.Kind{coherence.MEI, coherence.MESI}, PF3},
		{"single coherence-less core", []coherence.Kind{coherence.None}, PF1},
		{"single coherent core", []coherence.Kind{coherence.MESI}, PF3},
		{"single Dragon core", []coherence.Kind{coherence.Dragon}, PF3},
		{"homogeneous Dragon pair", []coherence.Kind{coherence.Dragon, coherence.Dragon}, PF3},
		{"Dragon + no-coherence", []coherence.Kind{coherence.Dragon, coherence.None}, PF2},
		{"Dragon + MOESI", []coherence.Kind{coherence.Dragon, coherence.MOESI}, PF3},
		{"quad all-None", []coherence.Kind{coherence.None, coherence.None, coherence.None, coherence.None}, PF1},
		{"quad one coherent", []coherence.Kind{coherence.None, coherence.MSI, coherence.None, coherence.None}, PF2},
		{"quad all distinct coherent", []coherence.Kind{coherence.MEI, coherence.MSI, coherence.MESI, coherence.MOESI}, PF3},
		{"quad mixed with Dragon and None", []coherence.Kind{coherence.Dragon, coherence.None, coherence.MESI, coherence.None}, PF2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Classify(c.protos)
			if err != nil {
				t.Fatalf("Classify(%v): %v", c.protos, err)
			}
			if got != c.want {
				t.Fatalf("Classify(%v) = %v, want %v", c.protos, got, c.want)
			}
		})
	}
}

// TestClassifyFullMatrix sweeps every protocol vector of length 1..3 over
// all six kinds (216 triples alone) and checks Classify against the Table 1
// rule — the full matrix, not just the paper's example platforms.
func TestClassifyFullMatrix(t *testing.T) {
	checked := 0
	for _, a := range allKinds {
		check(t, []coherence.Kind{a})
		checked++
		for _, b := range allKinds {
			check(t, []coherence.Kind{a, b})
			checked++
			for _, c := range allKinds {
				check(t, []coherence.Kind{a, b, c})
				checked++
			}
		}
	}
	if want := 6 + 6*6 + 6*6*6; checked != want {
		t.Fatalf("swept %d vectors, want %d", checked, want)
	}
}

func check(t *testing.T, protos []coherence.Kind) {
	t.Helper()
	got, err := Classify(protos)
	if err != nil {
		t.Fatalf("Classify(%v): %v", protos, err)
	}
	if want := wantClass(protos); got != want {
		t.Errorf("Classify(%v) = %v, want %v", protos, got, want)
	}
}

// TestClassifyAgreesWithReduce: for every vector Reduce accepts, the class it
// reports must match Classify's (Reduce embeds the classification in its
// Integration output).
func TestClassifyAgreesWithReduce(t *testing.T) {
	for _, a := range allKinds {
		for _, b := range allKinds {
			protos := []coherence.Kind{a, b}
			integ, err := Reduce(protos)
			if err != nil {
				// Dragon mixes are rejected by Reduce; Classify still has an
				// answer for them, checked by the full-matrix sweep above.
				continue
			}
			class, err := Classify(protos)
			if err != nil {
				t.Fatalf("Classify(%v): %v", protos, err)
			}
			if integ.Class != class {
				t.Errorf("Reduce(%v).Class = %v, Classify = %v", protos, integ.Class, class)
			}
		}
	}
}

// TestClassifyEmpty: an empty vector is an error, not a class, and Reduce
// passes the error on.
func TestClassifyEmpty(t *testing.T) {
	for _, protos := range [][]coherence.Kind{nil, {}} {
		if _, err := Classify(protos); err == nil {
			t.Errorf("Classify(%v) did not error", protos)
		}
		if _, err := Reduce(protos); err == nil {
			t.Errorf("Reduce(%v) did not error", protos)
		}
	}
}

var sinkClass PlatformClass

func BenchmarkClassifyQuad(b *testing.B) {
	protos := []coherence.Kind{coherence.MEI, coherence.None, coherence.MESI, coherence.MOESI}
	for i := 0; i < b.N; i++ {
		c, err := Classify(protos)
		if err != nil {
			b.Fatal(err)
		}
		sinkClass = c
	}
	_ = fmt.Sprint(sinkClass)
}
