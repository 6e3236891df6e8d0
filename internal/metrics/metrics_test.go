package metrics

import (
	"encoding/json"
	"math"
	"testing"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	s := r.NewSampler(100)
	if c != nil || g != nil || h != nil || s != nil {
		t.Fatal("nil registry handed out non-nil instruments")
	}
	// Every operation on the nil instruments must be a no-op, not a panic.
	c.Inc()
	c.Add(7)
	g.Set(3.5)
	h.Observe(42)
	s.Delta("d", func() float64 { return 1 })
	s.Level("l", func() float64 { return 1 })
	s.Tick(100)
	s.Flush(200)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || s.Window() != 0 {
		t.Fatal("nil instruments recorded something")
	}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("nil histogram summary not zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter %d, want 10", c.Value())
	}
	if r.Counter("hits") != c {
		t.Fatal("same name returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(4)
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge %v, want last-value 2.5", g.Value())
	}
}

func TestHistogramSummary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 || h.Sum() != 5050 || h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if got := h.Mean(); got != 50.5 {
		t.Fatalf("mean %v, want 50.5", got)
	}
	// Log2 bucketing bounds the relative quantile error at 2x; for a
	// uniform 1..100 distribution the estimates should land well inside
	// the containing power-of-two range.
	if p50 := h.Quantile(0.50); p50 < 32 || p50 > 64 {
		t.Fatalf("p50 %v outside [32,64]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 64 || p99 > 100 {
		t.Fatalf("p99 %v outside [64,100]", p99)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("q=1 gives %v, want max", q)
	}
	if q := h.Quantile(-1); q != h.Quantile(0) {
		t.Fatalf("q<0 not clamped: %v", q)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	for i := 0; i < 5; i++ {
		h.Observe(28)
	}
	// All mass in one bucket with min==max: every quantile is exact.
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != 28 {
			t.Fatalf("quantile(%v) = %v, want 28", q, got)
		}
	}
}

func TestHistogramZero(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(0)
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Count() != 2 {
		t.Fatal("zero observations mishandled")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 3, 3, 7, 12, 40, 900, 901, 5000, 1 << 20} {
		h.Observe(v)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, cur, prev)
		}
		prev = cur
	}
}

func TestSamplerWindows(t *testing.T) {
	r := NewRegistry()
	s := r.NewSampler(100)
	var cum float64
	s.Delta("d", func() float64 { return cum })
	level := 0.0
	s.Level("l", func() float64 { return level })

	s.Tick(0) // engine tick at cycle 0 must not record an empty window
	cum, level = 10, 1
	s.Tick(100)
	cum, level = 25, 2
	s.Tick(200)
	cum, level = 31, 3
	s.Flush(250) // final partial window
	s.Flush(250) // double flush is a no-op

	snap := r.Snapshot()
	d := snap.Series["d"]
	if d.WindowCycles != 100 {
		t.Fatalf("window %d, want 100", d.WindowCycles)
	}
	wantD := []Point{{100, 10}, {200, 15}, {250, 6}}
	if len(d.Points) != len(wantD) {
		t.Fatalf("delta points %v, want %v", d.Points, wantD)
	}
	for i, p := range d.Points {
		if p != wantD[i] {
			t.Fatalf("delta point %d = %v, want %v", i, p, wantD[i])
		}
	}
	wantL := []Point{{100, 1}, {200, 2}, {250, 3}}
	for i, p := range snap.Series["l"].Points {
		if p != wantL[i] {
			t.Fatalf("level point %d = %v, want %v", i, p, wantL[i])
		}
	}
}

// TestSamplerEdgeCases covers the degenerate configurations: a zero window
// (sampler disabled, nil), a run shorter than one window (single flushed
// sample), and a series long enough to wrap the retention ring.
func TestSamplerEdgeCases(t *testing.T) {
	t.Run("empty window", func(t *testing.T) {
		r := NewRegistry()
		s := r.NewSampler(0)
		if s != nil {
			t.Fatal("zero window must disable the sampler")
		}
		s.Delta("d", func() float64 { return 1 }) // nil-safe
		s.Level("l", func() float64 { return 1 })
		s.Bound(4)
		s.Tick(100)
		s.Flush(100)
		if s.Window() != 0 {
			t.Fatal("nil sampler has a window")
		}
		if n := len(r.Snapshot().Series); n != 0 {
			t.Fatalf("%d series recorded through a nil sampler", n)
		}
	})
	t.Run("single sample", func(t *testing.T) {
		r := NewRegistry()
		s := r.NewSampler(10_000)
		s.Level("l", func() float64 { return 7 })
		s.Flush(42) // run ended inside the first window
		se := r.Snapshot().Series["l"]
		if len(se.Points) != 1 || se.Points[0] != (Point{42, 7}) || se.Dropped != 0 {
			t.Fatalf("snapshot %+v, want one point {42 7}", se)
		}
	})
	t.Run("ring wraparound", func(t *testing.T) {
		r := NewRegistry()
		s := r.NewSampler(10)
		s.Bound(3)
		cycle := 0.0
		s.Level("l", func() float64 { return cycle })
		for i := 1; i <= 5; i++ {
			cycle = float64(10 * i)
			s.Tick(uint64(10 * i))
		}
		se := r.Snapshot().Series["l"]
		if se.Dropped != 2 {
			t.Fatalf("dropped %d, want 2", se.Dropped)
		}
		want := []Point{{30, 30}, {40, 40}, {50, 50}}
		if len(se.Points) != len(want) {
			t.Fatalf("points %v, want %v", se.Points, want)
		}
		for i, p := range se.Points {
			if p != want[i] {
				t.Fatalf("point %d = %v, want %v (oldest must be evicted first)", i, p, want[i])
			}
		}
	})
}

func TestSnapshotRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(1.5)
	h := r.Histogram("h")
	h.Observe(5)
	h.Observe(9)
	s := r.NewSampler(10)
	s.Level("series", func() float64 { return 2 })
	s.Flush(10)

	snap := r.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c"] != 3 || back.Gauges["g"] != 1.5 {
		t.Fatalf("round trip lost scalars: %+v", back)
	}
	hs := back.Histograms["h"]
	if hs.Count != 2 || hs.Sum != 14 || hs.Min != 5 || hs.Max != 9 {
		t.Fatalf("round trip lost histogram: %+v", hs)
	}
	if len(hs.Buckets) == 0 {
		t.Fatal("histogram snapshot has no buckets")
	}
	if len(back.Series["series"].Points) != 1 {
		t.Fatalf("round trip lost series: %+v", back.Series)
	}
}

func TestSharedHistogramAggregates(t *testing.T) {
	r := NewRegistry()
	// Two subsystems asking for the same name share one distribution (the
	// per-core cache controllers rely on this).
	a := r.Histogram("cache.miss")
	b := r.Histogram("cache.miss")
	a.Observe(1)
	b.Observe(3)
	if a != b || a.Count() != 2 {
		t.Fatal("same-name histograms did not aggregate")
	}
}
