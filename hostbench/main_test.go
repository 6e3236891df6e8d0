package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestQuantileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so quantile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0 = must refuse
	}{
		{99, 0.9, 0},
		{100, 0.9, 90},
		{1000, 0.9, 900},
		{19, 0.5, 0},
		{20, 0.5, 10},
		{21, 0.5, 11},
		{0, 0.5, 0},
	} {
		got, err := quantile(seq(tc.n), tc.q)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("quantile(n=%d, q=%g) = %g, want refusal", tc.n, tc.q, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("quantile(n=%d, q=%g) = %g, %v; want %g", tc.n, tc.q, got, err, tc.want)
		}
	}
}

func TestQuietPassesAreTheFastestQuarter(t *testing.T) {
	var ph phase
	for _, ms := range []int{50, 20, 40, 10, 30, 60, 70} {
		ph.passes = append(ph.passes, passStats{ops: 10, wall: time.Duration(ms) * time.Millisecond})
	}
	q := ph.quiet()
	if len(q) != 2 || q[0].wall != 10*time.Millisecond || q[1].wall != 20*time.Millisecond {
		t.Errorf("quiet passes %+v, want the 10 ms and 20 ms passes", q)
	}
	if ph.passes[0].wall != 50*time.Millisecond {
		t.Error("quiet reordered the phase's passes")
	}
	if got := total(q).rate(); math.Abs(got-20/0.03) > 1e-9 {
		t.Errorf("quiet rate %g, want %g", got, 20/0.03)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hetcc/internal/bus.(*Bus).Tick":                "bus",
		"hetcc/internal/sim.(*Engine).Run":              "sim",
		"hetcc/internal/platform.Build.func3":           "platform",
		"hetcc/internal/runner.Execute[...].func2":      "runner",
		"hetcc/internal/snooplogic.(*SnoopLogic).Snoop": "snooplogic",
		"hetcc/internal/explore.(*explorer).step":       "explore",
		"hetcc/internal/event.(*JSONLWriter).Write":     "event",
		"hetcc/internal/trace.(*Log).Addf":              "trace",
		"hetcc/internal/chrometrace.Write":              "other", // not a measured layer
		"runtime.mallocgc":                              "runtime.gc",
		"runtime.mallocgcSmallScanNoHeader":             "runtime.gc",
		"runtime.gcBgMarkWorker":                        "runtime.gc",
		"runtime.scanobject":                            "runtime.gc",
		"runtime.(*mspan).nextFreeIndex":                "runtime.gc",
		"runtime.growslice":                             "runtime.gc",
		"runtime.mapaccess2_fast32":                     "other",
		"runtime.memmove":                               "other",
		"crypto/sha256.block":                           "other",
		"hetcc.Build":                                   "other",
		"main.execute":                                  "other",
		"github.com/x/hetcc/internal/bus.F":             "other",
		"":                                              "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for hand-built test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, v []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(v)))
	p.b = append(p.b, v...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return p.bytes(num, body)
}

func TestFoldProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"hetcc/internal/bus.(*Bus).Tick", "runtime.mallocgc", "runtime.memmove", "hetcc/internal/cpu.(*CPU).Tick"}
	var prof pb
	prof.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b) // samples/count
	prof.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).b) // cpu/nanoseconds
	// Functions 1..4 named by string index 5..8.
	for id := uint64(1); id <= 4; id++ {
		prof.bytes(5, (&pb{}).varint(1, id).varint(2, id+4).b)
	}
	// Location 10 inlines cpu (innermost, first line) into bus; locations
	// 11 and 12 are the runtime frames.
	prof.bytes(4, (&pb{}).varint(1, 10).bytes(4, (&pb{}).varint(1, 4).b).bytes(4, (&pb{}).varint(1, 1).b).b)
	prof.bytes(4, (&pb{}).varint(1, 11).bytes(4, (&pb{}).varint(1, 2).b).b)
	prof.bytes(4, (&pb{}).varint(1, 12).bytes(4, (&pb{}).varint(1, 3).b).b)
	prof.bytes(4, (&pb{}).varint(1, 13).bytes(4, (&pb{}).varint(1, 1).b).b)
	// Samples: leaf first.  One uses unpacked fields, one has no location.
	prof.bytes(2, (&pb{}).packed(1, 10, 13).packed(2, 1, 500).b)
	prof.bytes(2, (&pb{}).packed(1, 13).packed(2, 1, 200).b)
	prof.bytes(2, (&pb{}).varint(1, 11).varint(1, 13).varint(2, 1).varint(2, 200).b)
	prof.bytes(2, (&pb{}).packed(1, 12).packed(2, 1, 50).b)
	prof.bytes(2, (&pb{}).packed(2, 1, 50).b)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}

	shares, err := foldProfile(prof.b)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cpu": 0.5, "bus": 0.2, "runtime.gc": 0.2, "other": 0.1}
	sum := 0.0
	for _, l := range layers {
		s, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		if math.Abs(s-want[l]) > 1e-12 {
			t.Errorf("share[%s] = %g, want %g", l, s, want[l])
		}
		sum += s
	}
	if len(shares) != len(layers) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("%d shares summing to %g, want %d summing to 1", len(shares), sum, len(layers))
	}
	if _, err := foldProfile(prof.b[:len(prof.b)-3]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// benchmarkFile is the part of BENCHMARK.json the names are checked
// against.
type benchmarkFile struct {
	Command   []string
	Paths     []string
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestNamesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var workloads []string
	for _, w := range f.Workloads {
		workloads = append(workloads, w.Name)
	}
	var ours []string
	for _, b := range benches {
		ours = append(ours, b.name)
	}
	if strings.Join(workloads, " ") != strings.Join(ours, " ") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", workloads, ours)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed []metric) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark prints %d", kind, len(listed), len(printed))
			return
		}
		for i, m := range printed {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)

	seen := map[string]bool{}
	names := append([]string(nil), ours...)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		names = append(names, m.name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

func TestEmit(t *testing.T) {
	vals := map[string]float64{}
	for i, m := range endToEnd {
		vals[m.name] = float64(i) + 0.5
	}
	var buf bytes.Buffer
	if err := emit(&buf, true, 3, 0, endToEnd, vals); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 3 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	for _, m := range endToEnd {
		if got := res.Metrics[m.name]; got.Value != vals[m.name] || got.Unit != m.unit {
			t.Errorf("%s = %+v", m.name, got)
		}
	}
	delete(vals, endToEnd[0].name)
	vals["extra"] = 1
	if err := emit(&buf, true, 3, 0, endToEnd, vals); err == nil {
		t.Error("emit accepted a missing and an extra metric")
	}
}

// TestExploreCensusEndToEnd runs the fastest workload both ways through
// the command's entry point and checks the printed result.
func TestExploreCensusEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the census for a few seconds")
	}
	for _, tc := range []struct {
		trace string
		want  []metric
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out, errOut bytes.Buffer
		spans := filepath.Join(t.TempDir(), "spans.jsonl")
		code := run([]string{"--workload", "explore-census", "--seed", "3", "--seconds", "3",
			"--trace", tc.trace, "--spans", spans}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 231 || len(res.Metrics) != len(tc.want) {
			t.Fatalf("trace %s: %d metrics, result %+v", tc.trace, len(res.Metrics), res)
		}
		if tc.trace == "0" {
			for _, m := range endToEnd {
				if res.Metrics[m.name].Value <= 0 {
					t.Errorf("%s = %g, want > 0", m.name, res.Metrics[m.name].Value)
				}
			}
			continue
		}
		sum := 0.0
		for _, l := range layers {
			sum += res.Metrics[l+".self_share"].Value
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("self shares sum to %g", sum)
		}
		if res.Metrics["explore.states"].Value != 19194 {
			t.Errorf("explore.states = %g, want 19194", res.Metrics["explore.states"].Value)
		}
		if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
			t.Errorf("spans file: %v", err)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}
