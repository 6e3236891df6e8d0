// Package metrics is the simulator's unified observability layer: a
// zero-dependency registry of counters, gauges and log-scaled latency
// histograms, plus windowed time-series sampling driven by the simulation
// engine (sampler.go).
//
// Every instrument is nil-safe: a nil *Registry hands out nil instruments,
// and recording into a nil instrument is a no-op costing one branch.  Hot
// paths therefore keep an instrument pointer obtained once at construction
// and record unconditionally; when metrics are disabled the whole layer
// collapses to predictable-taken nil checks (BenchmarkObserverCost prices
// the enabled layer against a run without it).
//
// The registry is not safe for concurrent use — the simulation kernel is
// single-threaded by design (DESIGN.md invariant 7), and so is the
// instrumentation.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v uint64
}

// Inc adds one.  Safe on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.  Safe on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value-wins instantaneous measurement.
type Gauge struct {
	v float64
}

// Set records the current value.  Safe on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the last recorded value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histBuckets is the number of log2 buckets: bucket 0 holds the value 0,
// bucket i (i >= 1) holds values v with bits.Len64(v) == i, i.e. the range
// [2^(i-1), 2^i).  65 buckets cover the full uint64 range.
const histBuckets = 65

// Histogram is a log2-bucketed latency distribution.  Observations are
// dimensionless counts (cycles, in this simulator); quantiles are estimated
// by linear interpolation inside the containing power-of-two bucket, which
// bounds the relative error at 2x and costs two words per observation range.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    uint64
	min    uint64
	max    uint64
}

// Observe records one value.  Safe on a nil histogram.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.counts[bits.Len64(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations (0 for nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Max returns the largest observation (0 for nil or empty).
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Min returns the smallest observation (0 for nil or empty).
func (h *Histogram) Min() uint64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Mean returns the arithmetic mean (0 for nil or empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the recorded
// distribution.  Returns 0 for a nil or empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count-1)
	var seen float64
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		if rank < seen+float64(n) {
			lo, hi := bucketBounds(i)
			// Clamp to the observed extremes so single-bucket histograms
			// report exact values.
			if lo < float64(h.min) {
				lo = float64(h.min)
			}
			if hi > float64(h.max) {
				hi = float64(h.max)
			}
			if n == 1 || hi <= lo {
				return lo
			}
			frac := (rank - seen) / float64(n-1)
			return lo + frac*(hi-lo)
		}
		seen += float64(n)
	}
	return float64(h.max)
}

// bucketBounds returns the inclusive value range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	lo = math.Pow(2, float64(i-1))
	hi = math.Pow(2, float64(i)) - 1
	return lo, hi
}

// Registry owns the instruments of one simulation run.  A nil registry is
// valid everywhere and hands out nil (no-op) instruments.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	samplers   []*Sampler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Enabled reports whether the registry records anything (false for nil).
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns the named counter, creating it on first use.  Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.  Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Subsystems sharing a name (e.g. the per-core cache controllers) aggregate
// into one distribution.  Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is the serialisable view of one histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Buckets lists the non-empty log2 buckets as {upper bound, count}
	// pairs, smallest bound first.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	// UpperBound is the largest value the bucket admits (inclusive).
	UpperBound uint64 `json:"le"`
	Count      uint64 `json:"count"`
}

// snapshot renders the histogram's serialisable view.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	if h == nil {
		return s
	}
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		var ub uint64
		if i > 0 {
			ub = 1<<uint(i) - 1
		}
		s.Buckets = append(s.Buckets, BucketCount{UpperBound: ub, Count: n})
	}
	return s
}

// Snapshot is the serialisable view of a whole registry, with deterministic
// (sorted) ordering so reports are reproducible byte-for-byte.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Series     map[string]SeriesSnapshot    `json:"series,omitempty"`
}

// Snapshot captures the registry's current state.  Returns nil for a nil
// registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
		Series:     make(map[string]SeriesSnapshot),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	for _, sam := range r.samplers {
		for _, se := range sam.series {
			s.Series[se.name] = se.snapshot(sam.window)
		}
	}
	return s
}

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	out := make([]string, 0, len(r.histograms))
	for n := range r.histograms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String summarises the registry for debugging.
func (r *Registry) String() string {
	if r == nil {
		return "metrics(disabled)"
	}
	return fmt.Sprintf("metrics(%d counters, %d gauges, %d histograms, %d samplers)",
		len(r.counters), len(r.gauges), len(r.histograms), len(r.samplers))
}
