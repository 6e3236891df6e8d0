package audit

import (
	"sort"
	"testing"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/event"
)

// TestInjectedViolationClasses drives the auditor the way the platform does —
// subscribed to a live event sink — with one scripted stream per violation
// class, and asserts that exactly the expected classes are flagged: the
// injected breach is caught, and no other check misfires on the same stream.
// This is the negative counterpart of the explorer's proof: each invariant
// has a demonstrated failure mode it alone detects.  The data-value check's
// case lives beside the golden model that feeds it (package platform,
// TestStaleReadCheck).
func TestInjectedViolationClasses(t *testing.T) {
	const line = uint32(0x2000_0000)
	// meiAllowed mirrors the MEI reduction's post-wrapper legal set.
	meiAllowed := []coherence.StateSet{
		coherence.SetOf(coherence.Exclusive, coherence.Modified),
		coherence.SetOf(coherence.Exclusive, coherence.Modified),
	}

	type env struct {
		sink *event.Sink
		a    *Auditor
	}
	cases := []struct {
		name   string
		allow  []coherence.StateSet
		script func(e env)
		want   []string // exact sorted multiset of violation checks
	}{
		{
			name: "clean-msi-sharing",
			script: func(e env) {
				e.sink.StateChange(0, line, coherence.Invalid, coherence.Shared)
				e.sink.StateChange(1, line, coherence.Invalid, coherence.Shared)
				e.sink.StateChange(0, line, coherence.Shared, coherence.Invalid)
				e.sink.StateChange(1, line, coherence.Shared, coherence.Modified)
			},
			want: nil,
		},
		{
			name: "swmr-two-writers",
			script: func(e env) {
				e.sink.StateChange(0, line, coherence.Invalid, coherence.Modified)
				e.sink.StateChange(1, line, coherence.Invalid, coherence.Exclusive)
			},
			want: []string{core.CheckSWMR},
		},
		{
			name: "swmr-writer-with-reader",
			script: func(e env) {
				e.sink.StateChange(0, line, coherence.Invalid, coherence.Shared)
				e.sink.StateChange(1, line, coherence.Invalid, coherence.Exclusive)
			},
			want: []string{core.CheckSWMR},
		},
		{
			// Two Owned copies: neither is an E/M "writer", so SWMR stays
			// quiet and the single-dirty-owner check fires alone.
			name: "double-dirty-owner",
			script: func(e env) {
				e.sink.StateChange(0, line, coherence.Invalid, coherence.Owned)
				e.sink.StateChange(1, line, coherence.Invalid, coherence.Owned)
			},
			want: []string{core.CheckDirtyOwner},
		},
		{
			// M+M breaches both invariants at once: two writable copies and
			// two dirty copies.  Both classes must report.
			name: "double-modified-hits-both",
			script: func(e env) {
				e.sink.StateChange(0, line, coherence.Invalid, coherence.Modified)
				e.sink.StateChange(1, line, coherence.Invalid, coherence.Modified)
			},
			want: []string{core.CheckDirtyOwner, core.CheckSWMR},
		},
		{
			// A single S copy is coherent by every sharing invariant, but
			// off the MEI reduction table: only illegal-state may fire.
			name:  "off-table-state",
			allow: meiAllowed,
			script: func(e env) {
				e.sink.StateChange(0, line, coherence.Invalid, coherence.Shared)
			},
			want: []string{core.CheckIllegalState},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cycle := uint64(0)
			sink := event.NewSink(func() uint64 { cycle++; return cycle })
			a := New(Config{Cores: 2, Allowed: tc.allow})
			sink.Subscribe(a.Handle)
			tc.script(env{sink: sink, a: a})

			var got []string
			for _, v := range a.Violations() {
				got = append(got, v.Check)
			}
			sort.Strings(got)
			want := append([]string(nil), tc.want...)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("flagged %v, want exactly %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("flagged %v, want exactly %v", got, want)
				}
			}
			if uint64(len(got)) != a.ViolationCount() {
				t.Fatalf("retained %d but counted %d", len(got), a.ViolationCount())
			}
		})
	}
}
