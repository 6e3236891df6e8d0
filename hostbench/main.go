// Command hostbench measures the host time the hetcc simulator and its
// protocol explorer cost to run: how fast they produce the paper's results,
// not the simulated cycles (cmd/bench pins those exactly).
//
// Each workload is a closed loop in one process: passes over a fixed list of
// operations (one simulation, or one explore.Explore call), each operation
// starting only when a worker finished the previous one.  Every operation is
// checked: a failed run, a stale read, an auditor violation, a wrapped
// explorer violation, an incomplete sweep, or any difference from the
// reference pass's cycles and digests counts as failed.
//
//	bash hostbench/run.sh --workload figure-sweep --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced (spans around every public call plus a CPU
// profile) and prints the per-layer metrics.  The last line of standard
// output is one JSON object; the lines before it are for people.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"hetcc/internal/runner"
)

// defaultSeed is the workload seed used when --seed is not given.
const defaultSeed = 1

// metric names one printed metric and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run, every workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"run_ms_p50", "ms"},
	{"run_ms_p90", "ms"},
	{"allocs_per_run", "count"},
	{"bytes_per_run", "B"},
}

// perLayer are the metrics of a traced run.  A layer that does no work in a
// workload reports 0.
var perLayer = func() []metric {
	ms := []metric{
		{"workload.programs_us", "us"},
		{"platform.build_us", "us"},
		{"platform.load_us", "us"},
		{"platform.run_us", "us"},
		{"platform.report_us", "us"},
		{"explore.explore_us", "us"},
		{"sim.ns_per_wake", "ns"},
		{"sim.ns_per_cycle", "ns"},
		{"runner.busy_frac", "ratio"},
		{"runtime.gc_cycles_per_run", "count"},
		{"runtime.gc_pause_share", "ratio"},
		{"runtime.peak_rss_mb", "MB"},
	}
	for _, l := range layers {
		ms = append(ms, metric{l + ".self_share", "ratio"})
	}
	return append(ms, []metric{
		{"sim.wakes", "count"},
		{"sim.passes", "count"},
		{"sim.skip_ratio", "ratio"},
		{"cpu.instructions", "count"},
		{"cpu.stall_cycles", "cycles"},
		{"cpu.isr_runs", "count"},
		{"bus.tenures", "count"},
		{"bus.retry_ratio", "ratio"},
		{"bus.utilization", "ratio"},
		{"bus.line_fills", "count"},
		{"bus.write_backs", "count"},
		{"cache.hit_ratio", "ratio"},
		{"cache.snoop_invalidations", "count"},
		{"cache.snoop_flushes", "count"},
		{"snooplogic.cam_hits", "count"},
		{"snooplogic.spurious_ratio", "ratio"},
		{"wrapper.conversions", "count"},
		{"event.records", "count"},
		{"audit.violations", "count"},
		{"explore.states", "count"},
		{"explore.transitions", "count"},
		{"explore.ns_per_state", "ns"},
		{"sim_cycles", "cycles"},
		{"sim_minstr_per_s", "Minstr/s"},
		{"sim_mcycles_per_s", "Mcycles/s"},
		{"explore_kstates_per_s", "kstates/s"},
		{"bench.trace_overhead_pct", "%"},
	}...)
}()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, b := range benches {
		names = append(names, b.name)
	}
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed (drives TCS block choice)")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs traced and prints the per-layer metrics")
	spansPath := fs.String("spans", "", "file the traced run writes its spans to, as JSONL (default .bench_build/spans-<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b, err := benchByName(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 2
	}
	if *spansPath == "" {
		*spansPath = filepath.Join(".bench_build", "spans-"+b.name+".jsonl")
	}
	// Go code runs on as many CPUs as the workload has workers; the garbage
	// collector shares them.  With a spare CPU for the collector, a
	// one-worker run on a 2-CPU host was a third slower and its throughput
	// spread by 25% between runs instead of 5%.
	runtime.GOMAXPROCS(b.jobs)

	fmt.Fprintf(stdout, "workload %s: seed %d, %d worker(s), %d operations per pass\n", b.name, *seed, b.jobs, len(b.ops(*seed)))
	m := newMeasurer(b, *seed, stdout)
	dur := time.Duration(*seconds * float64(time.Second))
	defs, vals := endToEnd, map[string]float64(nil)
	if *trace == 1 {
		defs = perLayer
		vals, err = m.traced(dur, *spansPath)
	} else {
		vals, err = m.untraced(dur)
	}
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	if m.firstErr != nil {
		fmt.Fprintf(stdout, "FAILED %d of %d operations; first: %v\n", m.failed, m.attempted, m.firstErr)
	}
	if err := emit(stdout, m.failed == 0, m.attempted, m.failed, defs, vals); err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	if m.failed > 0 {
		return 1
	}
	return 0
}

// emit prints the metrics for people, then the result object as the last
// line.  Every metric of defs must have a value, and no other may.
func emit(w io.Writer, correct bool, attempted, failed int, defs []metric, vals map[string]float64) error {
	if len(vals) != len(defs) {
		return fmt.Errorf("emit: %d values for %d metrics", len(vals), len(defs))
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("emit: no value for metric %s", d.name)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{v, d.unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// Minimum sample counts for the quantiles a phase reports (see quantile).
const (
	minPasses = 2 * minBeyond  // median over passes
	minOps    = 10 * minBeyond // p90 over the quiet passes' operations
)

// measurer runs one workload: the reference pass, then timed passes.
type measurer struct {
	b      bench
	seed   uint64
	ops    []op
	ref    []outcome
	epoch  time.Time
	nextOp int
	out    io.Writer

	attempted, failed int
	firstErr          error
}

func newMeasurer(b bench, seed uint64, out io.Writer) *measurer {
	m := &measurer{b: b, seed: seed, ops: b.ops(seed), epoch: time.Now(), out: out}
	m.ref = referencePass(b, m.ops)
	for i, r := range m.ref {
		m.check(m.ops[i].label, r, r)
	}
	return m
}

// check counts one operation against the failure conditions and the
// reference.
func (m *measurer) check(label string, got, want outcome) {
	m.attempted++
	err := got.err
	if err == nil {
		err = mismatch(got, want)
	}
	if err != nil {
		m.failed++
		if m.firstErr == nil {
			m.firstErr = fmt.Errorf("%s: %w", label, err)
		}
	}
}

// passStats is one pass over the workload's operations.
type passStats struct {
	ops                     int
	wall, setup, work, busy time.Duration
	mallocs, bytes          uint64
	gcs, pauseNs            uint64
	counts                  counts
	lat                     []float64 // per-operation host latency, ms
}

func (p passStats) rate() float64 { return float64(p.ops) / p.wall.Seconds() }

// phase is a run of consecutive passes.
type phase struct {
	passes []passStats
	spans  []span
}

// quietCount is how many of n passes are quiet: the fastest quarter.
func quietCount(n int) int { return (n + 3) / 4 }

// quiet returns the fastest quarter of the phase's passes by operations per
// second.  Other processes on the host only ever slow a pass down, so these
// passes track the program rather than its neighbours.  On a shared 2-vCPU
// host the median pass's throughput spread by 11-21% between runs, the
// quiet quarter's by 1-8%.
func (ph *phase) quiet() []passStats {
	ps := append([]passStats(nil), ph.passes...)
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].rate() > ps[j].rate() })
	return ps[:quietCount(len(ps))]
}

// total sums passes; its lat holds every operation's latency.
func total(ps []passStats) passStats {
	var t passStats
	for _, p := range ps {
		t.ops += p.ops
		t.wall += p.wall
		t.setup += p.setup
		t.work += p.work
		t.busy += p.busy
		t.mallocs += p.mallocs
		t.bytes += p.bytes
		t.gcs += p.gcs
		t.pauseNs += p.pauseNs
		t.counts.add(p.counts)
		t.lat = append(t.lat, p.lat...)
	}
	return t
}

// median is the median over passes of f.
func (ph *phase) median(f func(passStats) float64) (float64, error) {
	xs := make([]float64, len(ph.passes))
	for i, p := range ph.passes {
		xs[i] = f(p)
	}
	return quantile(xs, 0.5)
}

// phase runs passes until dur has elapsed, at least minPass passes were
// measured and the quiet passes hold at least minOp operations, or until the
// hard limit of twice dur.
func (m *measurer) phase(dur time.Duration, traced bool, minPass, minOp int) phase {
	var ph phase
	start := time.Now()
	for time.Since(start) < dur || len(ph.passes) < minPass || quietCount(len(ph.passes))*len(m.ops) < minOp {
		if time.Since(start) > 2*dur {
			break
		}
		m.pass(&ph, traced)
	}
	return ph
}

func (m *measurer) pass(ph *phase, traced bool) {
	var ps passStats
	ops := m.ops
	if m.b.census {
		t := time.Now()
		ops = m.b.ops(m.seed)
		ps.setup = time.Since(t)
	}
	tasks := make([]runner.Task[outcome], len(ops))
	for i, o := range ops {
		var rec *recorder
		if traced {
			rec = &recorder{epoch: m.epoch, op: m.nextOp}
		}
		m.nextOp++
		tasks[i] = runner.Task[outcome]{Label: o.label, Run: func() (outcome, error) { return execute(o, rec), nil }}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	outs := runner.Execute(tasks, runner.Options{Jobs: m.b.jobs})
	ps.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	ps.ops = len(outs)
	ps.mallocs = after.Mallocs - before.Mallocs
	ps.bytes = after.TotalAlloc - before.TotalAlloc
	ps.gcs = uint64(after.NumGC - before.NumGC)
	ps.pauseNs = after.PauseTotalNs - before.PauseTotalNs
	for i, o := range outs {
		got := o.Value
		if o.Err != nil {
			got.err = o.Err
		}
		m.check(o.Label, got, m.ref[i])
		ps.lat = append(ps.lat, float64(o.Elapsed)/1e6)
		ps.setup += got.setup
		ps.work += got.work
		ps.busy += o.Elapsed
		ps.counts.add(got.counts)
		ph.spans = append(ph.spans, got.spans...)
	}
	ph.passes = append(ph.passes, ps)
}

// errs keeps the first error of a sequence of computations.
type errs struct{ err error }

func (e *errs) keep(v float64, err error) float64 {
	if err != nil && e.err == nil {
		e.err = err
	}
	return v
}

// untraced measures the end-to-end metrics.  Time metrics come from the
// quiet passes; allocation metrics, which the host does not disturb, are
// medians over every pass.
func (m *measurer) untraced(dur time.Duration) (map[string]float64, error) {
	ph := m.phase(dur, false, minPasses, minOps)
	q := ph.quiet()
	t := total(q)
	var e errs
	vals := map[string]float64{
		"setup_s":        t.setup.Seconds() / float64(len(q)),
		"runs_per_s":     t.rate(),
		"run_ms_p50":     e.keep(quantile(t.lat, 0.5)),
		"run_ms_p90":     e.keep(quantile(t.lat, 0.9)),
		"allocs_per_run": e.keep(ph.median(func(p passStats) float64 { return float64(p.mallocs) / float64(p.ops) })),
		"bytes_per_run":  e.keep(ph.median(func(p passStats) float64 { return float64(p.bytes) / float64(p.ops) })),
	}
	m.describe(ph)
	return vals, e.err
}

// describe prints, for people, the metrics that apply to this workload only
// and the digest of its simulated output.
func (m *measurer) describe(ph phase) {
	t := total(ph.passes)
	first := ph.passes[0]
	fmt.Fprintf(m.out, "%d passes, %d operations measured (p50/p90 over the %d samples of the %d quiet passes); failed_frac %g; peak_rss_mb %.6g MB\n",
		len(ph.passes), t.ops, total(ph.quiet()).ops, quietCount(len(ph.passes)), ratio(float64(m.failed), float64(m.attempted)), peakRSSMB())
	if m.b.census {
		fmt.Fprintf(m.out, "  explore_kstates_per_s %.6g kstates/s, %d states per pass\n",
			ratio(float64(t.counts.states), float64(t.work)/1e6), first.counts.states)
		return
	}
	fmt.Fprintf(m.out, "  sim_minstr_per_s %.6g Minstr/s, sim_mcycles_per_s %.6g Mcycles/s (inside Platform.Run)\n",
		ratio(float64(t.counts.instructions)/1e6, t.work.Seconds()), ratio(float64(t.counts.cycles)/1e6, t.work.Seconds()))
	fmt.Fprintf(m.out, "  sim_cycles %d cycles, sim_digest %s\n", first.counts.cycles, m.simDigest())
}

// simDigest folds (label, simulated cycles) of every reference operation,
// so a host-speed change can show its simulated output is unchanged.
func (m *measurer) simDigest() string {
	lines := make([]string, len(m.ops))
	for i, o := range m.ops {
		lines[i] = fmt.Sprintf("%s %d", o.label, m.ref[i].cycles)
	}
	return runner.CombineDigests(lines)
}

// traced runs the workload untraced for half of dur, then traced with a CPU
// profile for the other half, and derives the per-layer metrics.
func (m *measurer) traced(dur time.Duration, spansPath string) (map[string]float64, error) {
	plain := m.phase(dur/2, false, 3, 0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tr := m.phase(dur/2, true, 3, 0)
	pprof.StopCPUProfile()
	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	m.describe(plain)

	p, t := total(plain.passes), total(tr.passes)
	c := tr.passes[0].counts
	spanMedian := func(name string) float64 {
		var xs []float64
		for _, s := range tr.spans {
			if s.Name == name {
				xs = append(xs, float64(s.dur())/1e3)
			}
		}
		if len(xs) == 0 {
			return 0
		}
		sort.Float64s(xs)
		return xs[(len(xs)-1)/2]
	}
	vals := map[string]float64{
		"workload.programs_us":      spanMedian("workload.programs"),
		"platform.build_us":         spanMedian("platform.build"),
		"platform.load_us":          spanMedian("platform.load"),
		"platform.run_us":           spanMedian("platform.run"),
		"platform.report_us":        spanMedian("platform.report"),
		"explore.explore_us":        spanMedian("explore.explore"),
		"sim.ns_per_wake":           ratio(float64(t.work), float64(t.counts.wakes)),
		"sim.ns_per_cycle":          ratio(float64(t.work), float64(t.counts.cycles)),
		"runner.busy_frac":          ratio(float64(t.busy), float64(m.b.jobs)*float64(t.wall)),
		"runtime.gc_cycles_per_run": ratio(float64(t.gcs), float64(t.ops)),
		"runtime.gc_pause_share":    ratio(float64(t.pauseNs), float64(t.wall)),
		"runtime.peak_rss_mb":       peakRSSMB(),
		"sim.wakes":                 float64(c.wakes),
		"sim.passes":                float64(c.passes),
		"sim.skip_ratio":            ratio(float64(c.cycles-c.passes), float64(c.cycles)),
		"cpu.instructions":          float64(c.instructions),
		"cpu.stall_cycles":          float64(c.stallCycles),
		"cpu.isr_runs":              float64(c.isrRuns),
		"bus.tenures":               float64(c.tenures),
		"bus.retry_ratio":           ratio(float64(c.aborted), float64(c.tenures)),
		"bus.utilization":           ratio(float64(c.busBusy), float64(c.busBusy+c.busIdle)),
		"bus.line_fills":            float64(c.fills),
		"bus.write_backs":           float64(c.writeBacks),
		"cache.hit_ratio":           ratio(float64(c.cacheHits), float64(c.cacheAccesses)),
		"cache.snoop_invalidations": float64(c.snoopInvals),
		"cache.snoop_flushes":       float64(c.snoopFlushes),
		"snooplogic.cam_hits":       float64(c.camHits),
		"snooplogic.spurious_ratio": ratio(float64(c.spuriousHits), float64(c.camHits)),
		"wrapper.conversions":       float64(c.conversions),
		"event.records":             float64(c.records),
		"audit.violations":          float64(c.auditViol),
		"explore.states":            float64(c.states),
		"explore.transitions":       float64(c.transitions),
		"explore.ns_per_state":      ratio(float64(t.work), float64(t.counts.states)),
		"sim_cycles":                float64(c.cycles),
		"sim_minstr_per_s":          ratio(float64(p.counts.instructions)/1e6, p.work.Seconds()),
		"sim_mcycles_per_s":         ratio(float64(p.counts.cycles)/1e6, p.work.Seconds()),
		"explore_kstates_per_s":     ratio(float64(p.counts.states), float64(p.work)/1e6),
		"bench.trace_overhead_pct": (ratio(float64(p.ops), p.wall.Seconds())/
			ratio(float64(t.ops), t.wall.Seconds()) - 1) * 100,
	}
	for _, l := range layers {
		vals[l+".self_share"] = shares[l]
	}
	if err := writeSpans(spansPath, tr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(m.out, "traced: %d passes, %d spans written to %s\n", len(tr.passes), len(tr.spans), spansPath)
	return vals, nil
}

// peakRSSMB is the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
