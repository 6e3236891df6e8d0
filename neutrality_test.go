package hetcc_test

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"hetcc"
	"hetcc/internal/platform"
)

// observer is one observer layer as the report tests see it.
type observer struct {
	name string
	on   func(*hetcc.Config)
	// owns lists the report sections the observer adds.
	owns []string
}

// observers is every observer layer.  TestObserverNeutrality,
// TestBatchGoldenDigests and BenchmarkObserverCost all read this table, so
// a new layer is one row here, and the sections it owns get digests of
// their own.
var observers = []observer{
	{"metrics", func(c *hetcc.Config) { c.Metrics = true }, []string{"metrics"}},
	{"audit", func(c *hetcc.Config) { c.Audit = true }, []string{"audit"}},
	{"profile", func(c *hetcc.Config) { c.Profile = true }, []string{"profile"}},
	{"spans", func(c *hetcc.Config) { c.Spans = true }, []string{"critical_path", "cohorts"}},
	{"sharing", func(c *hetcc.Config) { c.Sharing = true }, []string{"sharing"}},
	{"eventlog", func(c *hetcc.Config) { c.EventLog = io.Discard }, nil},
	// A one-line ring overflows on every run, so trace_dropped shows up.
	{"tracecap", func(c *hetcc.Config) { c.TraceCap = 1 }, []string{"trace_dropped"}},
}

// allObservers is every row of observers at once: all of them on, owning
// every section any of them owns.
var allObservers = func() observer {
	all := observer{name: "all", on: func(c *hetcc.Config) {
		for _, o := range observers {
			o.on(c)
		}
	}}
	for _, o := range observers {
		all.owns = append(all.owns, o.owns...)
	}
	return all
}()

// owned is the set of report sections o owns.
func (o observer) owned() map[string]bool {
	set := make(map[string]bool, len(o.owns))
	for _, s := range o.owns {
		set[s] = true
	}
	return set
}

// reportSections splits a run report into its top-level JSON sections.
func reportSections(tb testing.TB, label string, rep *platform.Report) map[string]json.RawMessage {
	tb.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		tb.Fatalf("%s: marshal report: %v", label, err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(raw, &sections); err != nil {
		tb.Fatalf("%s: split report: %v", label, err)
	}
	return sections
}

// runReports runs specs with reports on and fails tb on any failed run.
func runReports(tb testing.TB, specs []hetcc.BatchSpec) []hetcc.BatchResult {
	tb.Helper()
	results := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: 2, Reports: true})
	if err := hetcc.BatchFirstError(results); err != nil {
		tb.Fatal(err)
	}
	return results
}

// TestObserverNeutrality is the observer-effect gate: across the 27-run
// matrix, under both schedulers, switching on any one observer changes no
// cycle count and no byte of any report section but the observer's own.
// Metrics and TraceCap feed on the event stream like the others, so this
// also shows that turning the stream on only watches.
func TestObserverNeutrality(t *testing.T) {
	for _, scheduler := range schedulerModes {
		scheduler := scheduler
		t.Run(scheduler, func(t *testing.T) {
			bare := determinismBatch(t, scheduler)
			for i := range bare {
				c := &bare[i].Config
				c.Audit, c.Profile, c.Spans = false, false, false
			}
			base := runReports(t, bare)
			baseSections := make([]map[string]json.RawMessage, len(base))
			for i, r := range base {
				baseSections[i] = reportSections(t, r.Label, r.Report)
			}
			for _, o := range observers {
				o := o
				t.Run(o.name, func(t *testing.T) {
					specs := append([]hetcc.BatchSpec(nil), bare...)
					for i := range specs {
						o.on(&specs[i].Config)
					}
					owned := o.owned()
					for i, r := range runReports(t, specs) {
						if got, want := r.Result.Cycles, base[i].Result.Cycles; got != want {
							t.Errorf("%s: %d cycles, %d without %s", r.Label, got, want, o.name)
						}
						on, off := reportSections(t, r.Label, r.Report), baseSections[i]
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

// BenchmarkObserverCost prices each observer layer on the reference WCS run
// (PF2, Proposed, 16 lines, exec time 2): one arm with no observer, one per
// row of observers and one with all of them.  An arm's cost is its ns/op
// and allocs/op over base's (EXPERIMENTS.md "Observer cost").  Before its
// timed loop, every arm holds the observer contract on one reported run: a
// section an observer owns is in the report exactly when that observer is
// on, the auditor finds no violation, and the run takes base's simulated
// cycles, since observers only watch.
func BenchmarkObserverCost(b *testing.B) {
	arms := []observer{{name: "base", on: func(*hetcc.Config) {}}}
	arms = append(append(arms, observers...), allObservers)

	ref := hetcc.Config{Scenario: hetcc.WCS, Solution: hetcc.Proposed, Params: hetcc.Params{Lines: 16, ExecTime: 2}}
	base := hetcc.MustRun(ref)
	if base.Err != nil {
		b.Fatal(base.Err)
	}
	owned := allObservers.owned()
	for _, arm := range arms {
		cfg := ref
		arm.on(&cfg)
		b.Run(arm.name, func(b *testing.B) {
			r := runReports(b, []hetcc.BatchSpec{{Label: arm.name, Config: cfg}})[0]
			if r.Result.Cycles != base.Cycles {
				b.Fatalf("run took %d cycles, base took %d", r.Result.Cycles, base.Cycles)
			}
			mine := arm.owned()
			sections := reportSections(b, arm.name, r.Report)
			for s := range owned {
				if _, present := sections[s]; present != mine[s] {
					b.Fatalf("%s section present=%v with its observer on=%v", s, present, mine[s])
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := hetcc.Run(cfg)
				if err != nil || res.Err != nil {
					b.Fatal(err, res.Err)
				}
				if res.Cycles != base.Cycles {
					b.Fatalf("run took %d cycles, base took %d", res.Cycles, base.Cycles)
				}
			}
		})
	}
}
