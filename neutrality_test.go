package hetcc_test

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"hetcc"
)

// reportSections splits a run report into its top-level JSON sections.
func reportSections(t *testing.T, r hetcc.BatchResult) map[string]json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(r.Report)
	if err != nil {
		t.Fatalf("%s: marshal report: %v", r.Label, err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(raw, &sections); err != nil {
		t.Fatalf("%s: split report: %v", r.Label, err)
	}
	return sections
}

// TestObserverNeutrality is the observer-effect gate: across the 27-run
// matrix, under both schedulers, switching on any one observer changes no
// cycle count and no byte of any report section but the observer's own.
// Metrics and TraceCap feed on the event stream like the others, so this
// also shows that turning the stream on only watches.
func TestObserverNeutrality(t *testing.T) {
	observers := []struct {
		name string
		on   func(*hetcc.Config)
		// owns lists the report sections the observer adds.
		owns []string
	}{
		{"metrics", func(c *hetcc.Config) { c.Metrics = true }, []string{"metrics"}},
		{"audit", func(c *hetcc.Config) { c.Audit = true }, []string{"audit"}},
		{"profile", func(c *hetcc.Config) { c.Profile = true }, []string{"profile"}},
		{"spans", func(c *hetcc.Config) { c.Spans = true }, []string{"critical_path", "cohorts"}},
		{"sharing", func(c *hetcc.Config) { c.Sharing = true }, []string{"sharing"}},
		{"eventlog", func(c *hetcc.Config) { c.EventLog = io.Discard }, nil},
		// A one-line ring overflows on every run, so trace_dropped shows up.
		{"tracecap", func(c *hetcc.Config) { c.TraceCap = 1 }, []string{"trace_dropped"}},
	}
	run := func(t *testing.T, specs []hetcc.BatchSpec) []hetcc.BatchResult {
		t.Helper()
		results := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: 2, Reports: true})
		if err := hetcc.BatchFirstError(results); err != nil {
			t.Fatal(err)
		}
		return results
	}
	for _, scheduler := range schedulerModes {
		scheduler := scheduler
		t.Run(scheduler, func(t *testing.T) {
			bare := determinismBatch(t, scheduler)
			for i := range bare {
				c := &bare[i].Config
				c.Audit, c.Profile, c.Spans = false, false, false
			}
			base := run(t, bare)
			baseSections := make([]map[string]json.RawMessage, len(base))
			for i, r := range base {
				baseSections[i] = reportSections(t, r)
			}
			for _, o := range observers {
				o := o
				t.Run(o.name, func(t *testing.T) {
					specs := append([]hetcc.BatchSpec(nil), bare...)
					for i := range specs {
						o.on(&specs[i].Config)
					}
					owned := make(map[string]bool)
					for _, s := range o.owns {
						owned[s] = true
					}
					for i, r := range run(t, specs) {
						if got, want := r.Result.Cycles, base[i].Result.Cycles; got != want {
							t.Errorf("%s: %d cycles, %d without %s", r.Label, got, want, o.name)
						}
						on, off := reportSections(t, r), baseSections[i]
						for name, raw := range on {
							if owned[name] {
								continue
							}
							if !bytes.Equal(raw, off[name]) {
								t.Errorf("%s: %s changed section %q:\n%s\n---\n%s", r.Label, o.name, name, off[name], raw)
							}
						}
						for name := range off {
							if _, ok := on[name]; !ok {
								t.Errorf("%s: %s removed section %q", r.Label, o.name, name)
							}
						}
						for _, name := range o.owns {
							if _, ok := on[name]; !ok {
								t.Errorf("%s: %s added no %q section", r.Label, o.name, name)
							}
						}
					}
				})
			}
		})
	}
}
