package hetcc

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index).  Each figure benchmark
// simulates the paper's key configuration for that chart and reports the
// paper's own metrics (execution-time ratio, % speedup) via ReportMetric,
// so `go test -bench=. -benchmem` reprints the evaluation headline numbers.

import (
	"strconv"
	"testing"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/explore"
	"hetcc/internal/memory"
	"hetcc/internal/platform"
	"hetcc/internal/workload"
)

// --- Table 1 ---------------------------------------------------------------

func BenchmarkTable1Classify(b *testing.B) {
	protos := []coherence.Kind{coherence.MEI, coherence.None}
	for i := 0; i < b.N; i++ {
		if _, err := core.Classify(protos); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables 2 and 3: directed staleness replays -----------------------------

func BenchmarkTable2MEIMESI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		broken, fixed, err := Table2()
		if err != nil {
			b.Fatal(err)
		}
		if !broken.StaleRead || fixed.StaleRead {
			b.Fatalf("broken=%v fixed=%v", broken.StaleRead, fixed.StaleRead)
		}
	}
}

func BenchmarkTable3MSIMESI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		broken, fixed, err := Table3()
		if err != nil {
			b.Fatal(err)
		}
		if !broken.StaleRead || fixed.StaleRead {
			b.Fatalf("broken=%v fixed=%v", broken.StaleRead, fixed.StaleRead)
		}
	}
}

// --- Table 4: environment defaults ------------------------------------------

func BenchmarkTable4Timing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := memory.DefaultTiming()
		if t.BurstLatency(8) != 13 {
			b.Fatal("table 4 miss penalty drifted")
		}
	}
}

// --- Figures 5-7: scenario charts -------------------------------------------

// figurePoint simulates all three strategies at one chart coordinate and
// reports the paper's metrics.
func figurePoint(b *testing.B, s Scenario, execTime, lines int) {
	b.Helper()
	var dis, sw, prop uint64
	for i := 0; i < b.N; i++ {
		for _, sol := range []Solution{CacheDisabled, Software, Proposed} {
			res, err := Run(Config{
				Scenario: s,
				Solution: sol,
				Params:   Params{Lines: lines, ExecTime: execTime},
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			switch sol {
			case CacheDisabled:
				dis = res.Cycles
			case Software:
				sw = res.Cycles
			case Proposed:
				prop = res.Cycles
			}
		}
	}
	b.ReportMetric(float64(prop)/float64(dis), "ratioProposed")
	b.ReportMetric(float64(sw)/float64(dis), "ratioSoftware")
	b.ReportMetric((float64(sw)-float64(prop))/float64(sw)*100, "speedupVsSW%")
}

func BenchmarkFigure5WCS(b *testing.B) {
	for _, et := range []int{1, 4} {
		for _, lines := range []int{1, 32} {
			b.Run(benchName("exec", et, "lines", lines), func(b *testing.B) {
				figurePoint(b, WCS, et, lines)
			})
		}
	}
}

func BenchmarkFigure6BCS(b *testing.B) {
	for _, et := range []int{1, 4} {
		for _, lines := range []int{1, 32} {
			b.Run(benchName("exec", et, "lines", lines), func(b *testing.B) {
				figurePoint(b, BCS, et, lines)
			})
		}
	}
}

func BenchmarkFigure7TCS(b *testing.B) {
	for _, et := range []int{1, 4} {
		for _, lines := range []int{1, 32} {
			b.Run(benchName("exec", et, "lines", lines), func(b *testing.B) {
				figurePoint(b, TCS, et, lines)
			})
		}
	}
}

// --- Figure 8: miss-penalty sweep -------------------------------------------

func BenchmarkFigure8MissPenalty(b *testing.B) {
	for _, s := range []Scenario{WCS, TCS, BCS} {
		for _, pen := range []int{13, 48, 96} {
			b.Run(benchName(s.String(), 32, "penalty", pen), func(b *testing.B) {
				var sw, prop uint64
				for i := 0; i < b.N; i++ {
					for _, sol := range []Solution{Software, Proposed} {
						res, err := Run(Config{
							Scenario: s,
							Solution: sol,
							Timing:   memory.ScaledTiming(pen),
							Params:   Params{Lines: 32, ExecTime: 1},
						})
						if err != nil {
							b.Fatal(err)
						}
						if res.Err != nil {
							b.Fatal(res.Err)
						}
						if sol == Software {
							sw = res.Cycles
						} else {
							prop = res.Cycles
						}
					}
				}
				b.ReportMetric(float64(prop)/float64(sw), "ratioVsSoftware")
				b.ReportMetric((float64(sw)-float64(prop))/float64(sw)*100, "speedup%")
			})
		}
	}
}

// --- Substrate micro-benchmarks ----------------------------------------------

// BenchmarkModelCheck measures the wrapped exploration of the heaviest
// 3-master mix.
func BenchmarkModelCheck(b *testing.B) {
	cfg := explore.Config{
		Protocols: []coherence.Kind{coherence.MOESI, coherence.MESI, coherence.MSI},
		Mode:      explore.ModeWrapped,
	}
	for i := 0; i < b.N; i++ {
		res, err := explore.Explore(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) != 0 {
			b.Fatal("violations appeared")
		}
	}
}

// --- Ablations (design-choice benchmarks from DESIGN.md) ---------------------

// BenchmarkAblationCacheToCache quantifies what MOESI's cache-to-cache
// sharing buys a homogeneous system (the capability heterogeneous mixes
// must give up).
func BenchmarkAblationCacheToCache(b *testing.B) {
	specs := []platform.ProcessorSpec{
		platform.Generic("P0", coherence.MOESI, 1),
		platform.Generic("P1", coherence.MOESI, 1),
	}
	run := func(disableWrappers bool) uint64 {
		// With wrappers: homogeneous MOESI keeps c2c.  DisableWrappers
		// uses the unwired policy, which suppresses supply — the ablation.
		res, err := Run(Config{
			Scenario:        WCS,
			Solution:        Proposed,
			Processors:      specs,
			DisableWrappers: disableWrappers,
			Params:          Params{Lines: 16, ExecTime: 2},
		})
		if err != nil || res.Err != nil {
			b.Fatal(err, res.Err)
		}
		return res.Cycles
	}
	var with, without uint64
	for i := 0; i < b.N; i++ {
		with = run(false)
		without = run(true)
	}
	b.ReportMetric(float64(without)/float64(with), "slowdownWithoutC2C")
}

// BenchmarkAblationISRCost sweeps the ARM interrupt response time, the
// parameter behind the paper's "platforms without need for a special
// interrupt service routine would perform even better".
func BenchmarkAblationISRCost(b *testing.B) {
	for _, resp := range []int{0, 4, 16, 64} {
		b.Run(benchName("response", resp, "", -1), func(b *testing.B) {
			specs := platform.PPCARm()
			specs[1].InterruptResponse = resp
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Scenario:   WCS,
					Solution:   Proposed,
					Processors: specs,
					Params:     Params{Lines: 16, ExecTime: 1},
				})
				if err != nil || res.Err != nil {
					b.Fatal(err, res.Err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "simCycles")
		})
	}
}

func benchName(k1 string, v1 int, k2 string, v2 int) string {
	if v2 < 0 {
		return benchPart(k1, v1)
	}
	return benchPart(k1, v1) + "/" + benchPart(k2, v2)
}

func benchPart(k string, v int) string {
	if k == "" {
		return ""
	}
	return k + "=" + strconv.Itoa(v)
}

// BenchmarkAblationUpdateVsInvalidate contrasts the Dragon update-based
// protocol with MESI on the two canonical sharing patterns: fine-grain word
// ping-pong (Dragon's home turf) and bulk line rewrites (where update
// storms lose to invalidate-once).
func BenchmarkAblationUpdateVsInvalidate(b *testing.B) {
	patterns := []struct {
		name   string
		params Params
	}{
		{"pingpong", Params{Lines: 1, ExecTime: 1, Iterations: 10, WordsPerLine: 1}},
		{"bulk", Params{Lines: 8, ExecTime: 2, Iterations: 6, WordsPerLine: 8}},
	}
	for _, pat := range patterns {
		b.Run(pat.name, func(b *testing.B) {
			run := func(k coherence.Kind) uint64 {
				specs := []platform.ProcessorSpec{platform.Generic("A", k, 1), platform.Generic("B", k, 1)}
				res, err := Run(Config{Scenario: WCS, Solution: Proposed, Processors: specs, Params: pat.params})
				if err != nil || res.Err != nil {
					b.Fatal(err, res.Err)
				}
				return res.Cycles
			}
			var mesi, dragon uint64
			for i := 0; i < b.N; i++ {
				mesi = run(coherence.MESI)
				dragon = run(coherence.Dragon)
			}
			b.ReportMetric(float64(dragon)/float64(mesi), "dragonOverMESI")
		})
	}
}

// BenchmarkScalingProcessors extends the paper's claim that the approach
// "can be easily extended to platforms with more than two processors":
// WCS contention with 2, 3 and 4 heterogeneous cores.
func BenchmarkScalingProcessors(b *testing.B) {
	pools := [][]coherence.Kind{
		{coherence.MEI, coherence.MESI},
		{coherence.MEI, coherence.MESI, coherence.MOESI},
		{coherence.MEI, coherence.MESI, coherence.MOESI, coherence.MSI},
	}
	for _, kinds := range pools {
		b.Run(benchName("cores", len(kinds), "", -1), func(b *testing.B) {
			var specs []platform.ProcessorSpec
			for i, k := range kinds {
				specs = append(specs, platform.Generic("P"+strconv.Itoa(i)+"-"+k.String(), k, 1))
			}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Scenario:   WCS,
					Solution:   Proposed,
					Processors: specs,
					Verify:     true,
					Params:     Params{Lines: 8, ExecTime: 1, Iterations: 4},
				})
				if err != nil || res.Err != nil {
					b.Fatal(err, res.Err)
				}
				if len(res.Violations) > 0 {
					b.Fatalf("stale read with %d cores: %v", len(kinds), res.Violations[0])
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "simCycles")
		})
	}
}

// BenchmarkAblationPipelinedBus measures what AHB-style address/data
// overlap would buy the paper's platform over the plain ASB.
func BenchmarkAblationPipelinedBus(b *testing.B) {
	run := func(pipelined bool) uint64 {
		res, err := Run(Config{
			Scenario:     WCS,
			Solution:     Proposed,
			PipelinedBus: pipelined,
			Params:       Params{Lines: 16, ExecTime: 1},
		})
		if err != nil || res.Err != nil {
			b.Fatal(err, res.Err)
		}
		return res.Cycles
	}
	var plain, piped uint64
	for i := 0; i < b.N; i++ {
		plain = run(false)
		piped = run(true)
	}
	b.ReportMetric(float64(piped)/float64(plain), "pipelinedOverPlain")
}

// BenchmarkSharingPatterns crosses the canonical sharing patterns with the
// homogeneous protocols: migratory data favours invalidation, fine-grain
// ping-pong and false sharing favour updates, producer/consumer sits
// between — the context for the paper's "invalidation-based protocols are
// more robust" default.
func BenchmarkSharingPatterns(b *testing.B) {
	protos := []coherence.Kind{coherence.MESI, coherence.MOESI, coherence.Dragon}
	for _, pat := range workload.Patterns() {
		for _, k := range protos {
			b.Run(pat.String()+"/"+k.String(), func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					specs := []platform.ProcessorSpec{platform.Generic("A", k, 1), platform.Generic("B", k, 1)}
					p, err := platform.Build(platform.Config{
						Processors: specs,
						Solution:   platform.Proposed,
						Lock:       platform.LockChoice{Kind: platform.LockUncachedTAS, Alternate: true, SpinDelay: 4},
						Verify:     true,
					})
					if err != nil {
						b.Fatal(err)
					}
					progs, err := workload.PatternPrograms(pat, workload.PatternParams{Rounds: 6, Lines: 8})
					if err != nil {
						b.Fatal(err)
					}
					if err := p.LoadPrograms(progs); err != nil {
						b.Fatal(err)
					}
					res := p.Run(20_000_000)
					if res.Err != nil || !res.Coherent() {
						b.Fatalf("%v/%v: err=%v violations=%v", pat, k, res.Err, res.Violations)
					}
					cycles = res.Cycles
				}
				b.ReportMetric(float64(cycles), "simCycles")
			})
		}
	}
}
