package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hetcc"
	"hetcc/internal/platform"
	"hetcc/internal/profile"
)

func sampleFile(cycles uint64) File {
	f := File{
		Schema:        Schema,
		SchemaVersion: SchemaVersion,
		Rev:           "test",
		Params:        hetcc.Params{Lines: 8, ExecTime: 1, Iterations: 8, WordsPerLine: 8},
		Runs: []Run{{
			Name: "pf2/wcs/proposed", Platform: "pf2", Scenario: "WCS", Solution: "proposed",
			Cycles: cycles, BusCycles: cycles / 2, BusUtilization: 0.8,
			Stalls: []profile.CoreSummary{{Core: 0, StallCycles: 10, Causes: map[string]uint64{"refill": 10}}},
		}},
	}
	return f
}

func writeSample(t *testing.T, name string, f File) string {
	t.Helper()
	d, err := digest(f)
	if err != nil {
		t.Fatal(err)
	}
	f.Digest = d
	path := filepath.Join(t.TempDir(), name)
	if err := writeFile(path, f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDigestIgnoresWallClockFields pins what the digest certifies: params and
// runs, not the revision label or the machine-dependent manifest.
func TestDigestIgnoresWallClockFields(t *testing.T) {
	a := sampleFile(1000)
	b := sampleFile(1000)
	b.Rev = "other"
	b.Manifest = &platform.Manifest{SchemaVersion: 6, GoVersion: "go9.9-other"}
	da, err := digest(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := digest(b)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatal("digest depends on rev/manifest")
	}
	c := sampleFile(1001)
	if dc, _ := digest(c); dc == da {
		t.Fatal("digest misses a cycle change")
	}
}

// TestReadFileRejectsTampering checks the round trip and the digest gate.
func TestReadFileRejectsTampering(t *testing.T) {
	path := writeSample(t, "ok.json", sampleFile(1000))
	f, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Runs[0].Cycles != 1000 || f.Runs[0].Stalls[0].Causes["refill"] != 10 {
		t.Fatalf("round trip lost data: %+v", f.Runs[0])
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := filepath.Join(t.TempDir(), "tampered.json")
	if err := os.WriteFile(tampered, []byte(string(raw[:len(raw)-100])+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readFile(tampered); err == nil {
		t.Fatal("truncated file accepted")
	}

	bad := sampleFile(1000)
	bad.Schema = "something.else"
	badPath := writeSample(t, "bad.json", bad)
	if _, err := readFile(badPath); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestDiffExitCodes drives the diff subcommand end to end on disk files:
// clean, within-threshold, regression, and missing-run cases.
func TestDiffExitCodes(t *testing.T) {
	base := writeSample(t, "base.json", sampleFile(1000))
	same := writeSample(t, "same.json", sampleFile(1000))
	within := writeSample(t, "within.json", sampleFile(1050))
	regressed := writeSample(t, "regressed.json", sampleFile(1200))
	improved := writeSample(t, "improved.json", sampleFile(800))
	empty := writeSample(t, "empty.json", File{Schema: Schema, SchemaVersion: SchemaVersion})

	cases := []struct {
		name     string
		old, cur string
		want     int
	}{
		{"unchanged", base, same, 0},
		{"within threshold", base, within, 0},
		{"regression", base, regressed, 1},
		{"improvement", base, improved, 0},
		{"missing run", base, empty, 1},
		{"new run no baseline", empty, base, 0},
	}
	for _, c := range cases {
		if got := runDiff([]string{c.old, c.cur}); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
	// A tighter threshold flips the within-threshold case.
	if got := runDiff([]string{"-threshold", "0.01", base, within}); got != 1 {
		t.Error("threshold flag ignored")
	}
	if got := runDiff([]string{base}); got != 2 {
		t.Error("missing operand not a usage error")
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns what
// it printed alongside its exit code.
func captureStdout(t *testing.T, fn func() int) (string, int) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	code := fn()
	os.Stdout = saved
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), code
}

// TestDiffUnreadableFileExitCode: I/O and validation failures are usage-level
// errors (exit 2), distinct from regressions (exit 1).
func TestDiffUnreadableFileExitCode(t *testing.T) {
	ok := writeSample(t, "ok.json", sampleFile(1000))
	missing := filepath.Join(t.TempDir(), "nope.json")
	if got := runDiff([]string{missing, ok}); got != 2 {
		t.Errorf("unreadable old file: exit %d, want 2", got)
	}
	if got := runDiff([]string{ok, missing}); got != 2 {
		t.Errorf("unreadable new file: exit %d, want 2", got)
	}
	garbage := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(garbage, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runDiff([]string{ok, garbage}); got != 2 {
		t.Errorf("malformed new file: exit %d, want 2", got)
	}
}

// TestDiffSummaryCountsImprovements: improvements beyond the threshold are
// counted in the summary line, not only reported per run.
func TestDiffSummaryCountsImprovements(t *testing.T) {
	base := sampleFile(1000)
	base.Runs = append(base.Runs, Run{Name: "pf2/wcs/software", Cycles: 2000})
	cur := sampleFile(1000)
	cur.Runs = append(cur.Runs, Run{Name: "pf2/wcs/software", Cycles: 1200}) // -40%
	oldPath := writeSample(t, "old.json", base)
	curPath := writeSample(t, "cur.json", cur)
	out, code := captureStdout(t, func() int { return runDiff([]string{oldPath, curPath}) })
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "no regressions (0 regression(s), 1 improvement(s) beyond 10%)") {
		t.Fatalf("summary does not count improvements beyond threshold:\n%s", out)
	}
	if !strings.Contains(out, "improvement beyond threshold") {
		t.Fatalf("per-run improvement line missing:\n%s", out)
	}
}

// explainFixtures builds a baseline and a regressed file whose regression is
// dominated by arbitration-wait stalls — the "slower arbitration" scenario of
// the acceptance criteria.
func explainFixtures(t *testing.T) (string, string) {
	t.Helper()
	base := sampleFile(1000)
	base.Runs[0].Stalls = []profile.CoreSummary{
		{Core: 0, StallCycles: 300, Causes: map[string]uint64{"arb-wait": 100, "refill": 200}},
	}
	base.Manifest = &platform.Manifest{SchemaVersion: 5, GoVersion: "go1.0-old"}
	cur := sampleFile(1600)
	cur.Runs[0].Stalls = []profile.CoreSummary{
		{Core: 0, StallCycles: 850, Causes: map[string]uint64{"arb-wait": 600, "refill": 250}},
	}
	cur.Manifest = &platform.Manifest{SchemaVersion: 5, GoVersion: "go9.9-other"}
	return writeSample(t, "explain-old.json", base), writeSample(t, "explain-new.json", cur)
}

// TestDiffExplainNamesDominantCause: `bench diff -explain` on a run whose
// arbitration stalls exploded must print a conserved cause table with
// arb-wait on top, plus the cross-toolchain warning from the manifests.
func TestDiffExplainNamesDominantCause(t *testing.T) {
	oldPath, curPath := explainFixtures(t)
	out, code := captureStdout(t, func() int {
		return runDiff([]string{"-explain", oldPath, curPath})
	})
	if code != 1 {
		t.Fatalf("regression not detected: exit %d\n%s", code, out)
	}
	causeIdx := strings.Index(out, "by cause (stall-ledger)")
	if causeIdx < 0 {
		t.Fatalf("explanation table missing:\n%s", out)
	}
	table := out[causeIdx:]
	arb := strings.Index(table, "arb-wait")
	refill := strings.Index(table, "refill")
	if arb < 0 || (refill >= 0 && arb > refill) {
		t.Fatalf("arb-wait is not the top cause of the explanation:\n%s", out)
	}
	if !strings.Contains(out, "warning: comparing across toolchains") {
		t.Fatalf("cross-toolchain warning missing:\n%s", out)
	}
}

// TestDiffJSONArtifact: -json writes a conserved machine-readable delta
// artifact with the regression/improvement counts CI uploads on failure.
func TestDiffJSONArtifact(t *testing.T) {
	oldPath, curPath := explainFixtures(t)
	artPath := filepath.Join(t.TempDir(), "delta.json")
	out, code := captureStdout(t, func() int {
		return runDiff([]string{"-json", artPath, oldPath, curPath})
	})
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	raw, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	var art DeltaArtifact
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatalf("artifact does not unmarshal: %v", err)
	}
	if art.Schema != DeltaSchema || art.SchemaVersion != DeltaSchemaVersion {
		t.Fatalf("artifact schema %q v%d", art.Schema, art.SchemaVersion)
	}
	if art.Regressions != 1 || len(art.Explanations) != 1 {
		t.Fatalf("artifact counts wrong: %+v", art)
	}
	e := art.Explanations[0]
	if !e.Conserved() {
		t.Fatalf("artifact explanation not conserved: %+v", e)
	}
	if d := e.Dominant(); d == nil || d.Cause != "arb-wait" || d.Delta != 500 {
		t.Fatalf("artifact dominant cause %+v, want arb-wait +500", d)
	}
	if len(art.ManifestDiff) == 0 {
		t.Fatal("artifact lost the manifest diff")
	}
}

// TestTrendMixedSchemaFiles: trend must load an older file that still
// carries the retired go_bench wall-clock rows next to one without them, and
// warn when the files span toolchains.
func TestTrendMixedSchemaFiles(t *testing.T) {
	oldFile := sampleFile(1000)
	oldFile.Rev = "seed"
	oldFile.Manifest = &platform.Manifest{SchemaVersion: 5, GoVersion: "go1.0-old"}
	newFile := sampleFile(900)
	newFile.Rev = "head"
	newFile.Manifest = &platform.Manifest{SchemaVersion: 5, GoVersion: "go9.9-other"}
	dir := writeTrendDir(t, map[string]File{"BENCH_seed.json": oldFile, "BENCH_head.json": newFile})
	seed := filepath.Join(dir, "BENCH_seed.json")
	raw := bytes.Replace(readBenchFile(t, seed), []byte(`"digest":`), []byte(`"go_bench": [{"name": "BenchmarkWCS", "ns_op": 120.5}], "digest":`), 1)
	if !bytes.Contains(raw, []byte("go_bench")) {
		t.Fatal("go_bench rows not injected")
	}
	if err := os.WriteFile(seed, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := captureStdout(t, func() int { return runTrend([]string{"-dir", dir}) })
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, want := range []string{"seed", "head", "1000", "900", "different toolchains"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trend output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "120.5") {
		t.Fatalf("trend still renders go_bench rows:\n%s", out)
	}
}

// committedBenchFiles are the BENCH files at the repository root.
var committedBenchFiles = []string{"BENCH_seed.json", "BENCH_pr5.json", "BENCH_pr8.json"}

func readBenchFile(tb testing.TB, path string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestTrendGolden pins `bench trend` over the committed BENCH files, two of
// which carry go_bench rows from before the field was retired.  Regenerate
// from a checkout holding only those three BENCH files with
// `go run ./cmd/bench trend > cmd/bench/testdata/trend.golden`.
func TestTrendGolden(t *testing.T) {
	dir := t.TempDir()
	for _, name := range committedBenchFiles {
		raw := readBenchFile(t, filepath.Join("..", "..", name))
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, code := captureStdout(t, func() int { return runTrend([]string{"-dir", dir}) })
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trend.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("bench trend output drifted from testdata/trend.golden:\n got:\n%s\nwant:\n%s", out, want)
	}
}

// FuzzReadFile: any input either fails to load or yields a File whose
// rewrite by writeFile reads back to the same digest and runs.  The seeds are
// whole BENCH files of about 17 KB, which the fuzzer is slow to minimise, so
// run it with -fuzzminimizetime 0s.
func FuzzReadFile(f *testing.F) {
	for _, name := range committedBenchFiles {
		f.Add(readBenchFile(f, filepath.Join("..", "..", name)))
	}
	seed := readBenchFile(f, filepath.Join("..", "..", committedBenchFiles[0]))
	f.Add(bytes.Replace(seed, []byte(`"digest": "2`), []byte(`"digest": "3`), 1))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readFile(in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.json")
		if err := writeFile(out, got); err != nil {
			t.Fatalf("accepted file does not rewrite: %v", err)
		}
		again, err := readFile(out)
		if err != nil {
			t.Fatalf("rewritten file does not re-read: %v", err)
		}
		if again.Digest != got.Digest || !reflect.DeepEqual(again.Runs, got.Runs) {
			t.Fatalf("round trip changed the file:\n%+v\n%+v", got, again)
		}
	})
}
