// Command bench is the performance-regression harness: it runs the paper's
// three microbenchmark scenarios under all three coherence solutions on the
// three case-study platforms (27 deterministic simulations on the parallel
// batch runner) and writes a versioned, digest-stamped JSON file of cycle
// counts, per-cause stall breakdowns and bus utilisation.  Because the
// simulator is cycle-accurate and deterministic, the cycle counts are exact
// machine-independent performance numbers — any drift is a real behavioural
// change, not noise.
//
//	bench -o BENCH_$(git rev-parse --short HEAD).json
//	bench diff BENCH_seed.json BENCH_new.json  # exit 1 on regression
//	bench trend                                # trajectory across BENCH_*.json
//
// `bench diff` compares two such files run by run: cycle-count increases
// beyond -threshold (default 10%) fail the diff, decreases are reported as
// improvements, and a run missing from the new file always fails.
//
// `bench trend` reads every committed BENCH_*.json (seed first, then sorted
// by filename) and prints the trajectory of total cycles, per-solution cycle
// totals and bus utilisation across revisions.  Host wall-clock time is
// measured by hostbench/, not here.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"hetcc"
	"hetcc/internal/delta"
	"hetcc/internal/platform"
	"hetcc/internal/profile"
)

// Schema identifies the bench-file format; SchemaVersion is bumped on any
// incompatible change.
const (
	Schema        = "hetcc.bench"
	SchemaVersion = 1
)

// File is the on-disk bench result set.
type File struct {
	Schema        string `json:"schema"`
	SchemaVersion int    `json:"schema_version"`
	// Rev labels the revision the numbers were taken at (git short hash).
	Rev string `json:"rev"`
	// Params are the microbenchmark knobs shared by every run.
	Params hetcc.Params `json:"params"`
	// Runs holds one entry per platform × scenario × solution, in a fixed
	// order.
	Runs []Run `json:"runs"`
	// Manifest records the producing toolchain, module revision and flags.
	// Machine-dependent, so it is excluded from Digest; diff and trend use
	// it to warn when files span toolchains.  Nil in files written before
	// the field existed.
	Manifest *platform.Manifest `json:"manifest,omitempty"`
	// Digest is the hex SHA-256 of the canonical JSON of (Params, Runs),
	// certifying the deterministic portion of the file.
	Digest string `json:"digest"`
}

// Run is one simulation's headline numbers.
type Run struct {
	// Name is "platform/scenario/solution", the diff join key.
	Name     string `json:"name"`
	Platform string `json:"platform"`
	Scenario string `json:"scenario"`
	Solution string `json:"solution"`
	// Cycles is the execution time in engine cycles — the paper's metric
	// and the regression gate.
	Cycles    uint64 `json:"cycles"`
	BusCycles uint64 `json:"bus_cycles"`
	// BusUtilization is busy/(busy+idle) on the bus clock.
	BusUtilization float64 `json:"bus_utilization"`
	// Stalls is the per-core stall-cause breakdown from the cycle ledger.
	Stalls []profile.CoreSummary `json:"stalls"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "diff":
			os.Exit(runDiff(os.Args[2:]))
		case "trend":
			os.Exit(runTrend(os.Args[2:]))
		}
	}
	os.Exit(runBench(os.Args[1:]))
}

// preset names one case-study platform.
type preset struct {
	name  string
	specs func() []platform.ProcessorSpec
}

var presets = []preset{
	{"pf1", platform.ARMPair}, // homogeneous coherence-less pair
	{"pf2", platform.PPCARm},  // PowerPC755 + ARM920T (performance platform)
	{"pf3", platform.PPCI486}, // PowerPC755 + Intel486 (wrapper conversion)
}

func runBench(argv []string) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		out   = fs.String("o", "", "output file (default BENCH_<rev>.json)")
		rev   = fs.String("rev", "", "revision label (default git rev-parse --short HEAD, else \"dev\")")
		jobs  = fs.Int("jobs", 0, "parallel simulations (0 = GOMAXPROCS)")
		lines = fs.Int("lines", 8, "cache lines accessed per iteration")
		iters = fs.Int("iterations", 8, "critical-section entries per task")
		sched = fs.String("scheduler", "", "engine scheduling strategy: event or tick (default: the library default; cycle counts are identical either way)")
	)
	fs.Parse(argv)

	if *rev == "" {
		*rev = gitRev()
	}
	params := hetcc.Params{Lines: *lines, ExecTime: 1, Iterations: *iters, WordsPerLine: 8}

	var specs []hetcc.BatchSpec
	for _, p := range presets {
		for _, sc := range []hetcc.Scenario{hetcc.WCS, hetcc.TCS, hetcc.BCS} {
			for _, sol := range []hetcc.Solution{hetcc.CacheDisabled, hetcc.Software, hetcc.Proposed} {
				name := fmt.Sprintf("%s/%s/%s", p.name, strings.ToLower(sc.String()), sol)
				specs = append(specs, hetcc.BatchSpec{
					Label: name,
					Config: hetcc.Config{
						Scenario:   sc,
						Solution:   sol,
						Processors: p.specs(),
						Params:     params,
						Verify:     true,
						Profile:    true,
						Scheduler:  *sched,
					},
				})
			}
		}
	}

	results := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: *jobs})
	f := File{Schema: Schema, SchemaVersion: SchemaVersion, Rev: *rev, Params: params,
		Manifest: platform.NewManifest(argv, 0)}
	for i, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "bench: run %s failed: %v\n", r.Label, r.Err)
			return 2
		}
		res := r.Result
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "bench: run %s ended abnormally: %v (%s)\n", r.Label, res.Err, res.StopReason)
			return 2
		}
		if !res.Coherent() {
			fmt.Fprintf(os.Stderr, "bench: run %s is incoherent; refusing to record its timing\n", r.Label)
			return 2
		}
		util := 0.0
		if total := res.Bus.BusyCycles + res.Bus.IdleCycles; total > 0 {
			util = float64(res.Bus.BusyCycles) / float64(total)
		}
		spec := specs[i]
		run := Run{
			Name:           r.Label,
			Platform:       strings.SplitN(r.Label, "/", 2)[0],
			Scenario:       spec.Config.Scenario.String(),
			Solution:       spec.Config.Solution.String(),
			Cycles:         res.Cycles,
			BusCycles:      res.Cycles / res.EngineCyclesPerBusCycle,
			BusUtilization: util,
		}
		if res.Profile != nil {
			run.Stalls = res.Profile.Cores
		}
		f.Runs = append(f.Runs, run)
		fmt.Printf("%-28s %9d cycles  util %4.1f%%\n", r.Label, res.Cycles, util*100)
	}

	var err error
	f.Digest, err = digest(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", f.Rev)
	}
	if err := writeFile(path, f); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Printf("wrote %s (%d runs, rev %s, digest %s)\n", path, len(f.Runs), f.Rev, f.Digest[:12])
	return 0
}

// DeltaArtifact is the machine-readable output of `bench diff -json`: the
// per-run causal explanations of every threshold-tripping regression, for CI
// to upload next to the BENCH file itself.
type DeltaArtifact struct {
	Schema        string   `json:"schema"`
	SchemaVersion int      `json:"schema_version"`
	Old           string   `json:"old"`
	New           string   `json:"new"`
	Threshold     float64  `json:"threshold"`
	Regressions   int      `json:"regressions"`
	Improvements  int      `json:"improvements_beyond_threshold"`
	ManifestDiff  []string `json:"manifest_diff,omitempty"`
	// Explanations holds one conserved cause decomposition per regressed run.
	Explanations []*delta.Explanation `json:"explanations,omitempty"`
}

// DeltaSchema identifies the diff -json artifact format.
const (
	DeltaSchema        = "hetcc.bench-delta"
	DeltaSchemaVersion = 1
)

func runDiff(argv []string) int {
	fs := flag.NewFlagSet("bench diff", flag.ExitOnError)
	var (
		threshold = fs.Float64("threshold", 0.10, "max tolerated fractional cycle increase per run")
		explain   = fs.Bool("explain", false, "print a per-cause delta table for every run beyond threshold")
		jsonOut   = fs.String("json", "", "write a machine-readable delta artifact to this path")
		topK      = fs.Int("top", 5, "rows per explanation table (0 = all)")
	)
	fs.Parse(argv)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench diff [-threshold 0.10] [-explain] [-json delta.json] [-top 5] old.json new.json")
		return 2
	}
	old, err := readFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench diff: %v\n", err)
		return 2
	}
	cur, err := readFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench diff: %v\n", err)
		return 2
	}
	if !old.Manifest.SameToolchain(cur.Manifest) {
		fmt.Println("warning: comparing across toolchains (cycle counts are still comparable):")
		for _, d := range old.Manifest.Diff(cur.Manifest) {
			fmt.Printf("warning:   %s\n", d)
		}
	}

	// explainRun renders the causal decomposition of one regressed run from
	// the two files' stall ledgers.
	explainRun := func(o, n Run) *delta.Explanation {
		e := delta.Compare(
			delta.FromLedger(o.Name, o.Cycles, o.Stalls),
			delta.FromLedger(n.Name, n.Cycles, n.Stalls),
		)
		e.ManifestDiff = old.Manifest.Diff(cur.Manifest)
		return e
	}

	curByName := map[string]Run{}
	for _, r := range cur.Runs {
		curByName[r.Name] = r
	}
	failures, improvements := 0, 0
	var explanations []*delta.Explanation
	for _, o := range old.Runs {
		n, ok := curByName[o.Name]
		if !ok {
			fmt.Printf("FAIL %-28s missing from %s\n", o.Name, fs.Arg(1))
			failures++
			continue
		}
		rel := float64(n.Cycles)/float64(o.Cycles) - 1
		switch {
		case n.Cycles == o.Cycles:
			fmt.Printf("ok   %-28s %9d cycles (unchanged)\n", o.Name, n.Cycles)
		case rel > *threshold:
			fmt.Printf("FAIL %-28s %9d -> %9d cycles (%+.1f%% > %.0f%% threshold)\n",
				o.Name, o.Cycles, n.Cycles, rel*100, *threshold*100)
			failures++
			e := explainRun(o, n)
			explanations = append(explanations, e)
			if *explain {
				e.WriteText(os.Stdout, *topK)
			}
		case rel > 0:
			fmt.Printf("ok   %-28s %9d -> %9d cycles (%+.1f%%, within threshold)\n",
				o.Name, o.Cycles, n.Cycles, rel*100)
		case rel < -*threshold:
			fmt.Printf("ok   %-28s %9d -> %9d cycles (%+.1f%%, improvement beyond threshold)\n",
				o.Name, o.Cycles, n.Cycles, rel*100)
			improvements++
		default:
			fmt.Printf("ok   %-28s %9d -> %9d cycles (%+.1f%%, improvement)\n",
				o.Name, o.Cycles, n.Cycles, rel*100)
		}
	}
	for _, n := range cur.Runs {
		found := false
		for _, o := range old.Runs {
			if o.Name == n.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("new  %-28s %9d cycles (no baseline)\n", n.Name, n.Cycles)
		}
	}
	if *jsonOut != "" {
		art := DeltaArtifact{
			Schema:        DeltaSchema,
			SchemaVersion: DeltaSchemaVersion,
			Old:           fs.Arg(0),
			New:           fs.Arg(1),
			Threshold:     *threshold,
			Regressions:   failures,
			Improvements:  improvements,
			ManifestDiff:  old.Manifest.Diff(cur.Manifest),
			Explanations:  explanations,
		}
		if err := writeJSON(*jsonOut, art); err != nil {
			fmt.Fprintf(os.Stderr, "bench diff: %v\n", err)
			return 2
		}
		fmt.Printf("wrote delta artifact %s (%d explanation(s))\n", *jsonOut, len(art.Explanations))
	}
	summary := fmt.Sprintf("%d regression(s), %d improvement(s) beyond %.0f%%", failures, improvements, *threshold*100)
	if failures > 0 {
		fmt.Printf("bench diff: %s\n", summary)
		return 1
	}
	fmt.Printf("bench diff: no regressions (%s)\n", summary)
	return 0
}

// runTrend prints the performance trajectory across every committed bench
// file: total cycles (with deltas), per-solution cycle totals and mean bus
// utilisation.  Files written while the bench file still carried go_bench
// wall-clock rows load unchanged: encoding/json skips the unknown field.
func runTrend(argv []string) int {
	fs := flag.NewFlagSet("bench trend", flag.ExitOnError)
	dir := fs.String("dir", ".", "directory holding BENCH_*.json files")
	fs.Parse(argv)

	paths, err := filepath.Glob(filepath.Join(*dir, "BENCH_*.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench trend: %v\n", err)
		return 2
	}
	if len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "bench trend: no BENCH_*.json files in %s\n", *dir)
		return 2
	}
	// The seed file is the fixed origin of the trajectory; everything else
	// follows in filename order.
	sort.Slice(paths, func(i, j int) bool {
		si := filepath.Base(paths[i]) == "BENCH_seed.json"
		sj := filepath.Base(paths[j]) == "BENCH_seed.json"
		if si != sj {
			return si
		}
		return paths[i] < paths[j]
	})

	type point struct {
		path string
		file File
	}
	var points []point
	for _, p := range paths {
		f, err := readFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench trend: %v\n", err)
			return 2
		}
		points = append(points, point{p, f})
	}

	// Name any pair of files recorded on different toolchains once up
	// front (cycle counts are machine-independent either way).
	// Manifest-less files (pre-v5) carry no toolchain claim: they neither
	// trigger a warning themselves nor mask a genuine mismatch between the
	// recorded manifests on either side of them, so each recorded manifest
	// is compared against the last recorded one, not its literal neighbour.
	var lastRecorded *point
	for i := range points {
		if points[i].file.Manifest == nil {
			continue
		}
		if lastRecorded != nil && !lastRecorded.file.Manifest.SameToolchain(points[i].file.Manifest) {
			fmt.Printf("warning: %s and %s were recorded on different toolchains\n",
				lastRecorded.file.Rev, points[i].file.Rev)
		}
		lastRecorded = &points[i]
	}

	solutions := []string{"cache-disabled", "software", "proposed"}
	fmt.Printf("%-10s %5s %14s %9s %7s", "rev", "runs", "total cycles", "Δ prev", "util")
	for _, s := range solutions {
		fmt.Printf(" %12s", s)
	}
	fmt.Println()
	var prevTotal uint64
	for i, pt := range points {
		var total uint64
		var util float64
		bySol := map[string]uint64{}
		for _, r := range pt.file.Runs {
			total += r.Cycles
			util += r.BusUtilization
			bySol[r.Solution] += r.Cycles
		}
		if n := len(pt.file.Runs); n > 0 {
			util /= float64(n)
		}
		delta := "-"
		if i > 0 && prevTotal > 0 {
			delta = fmt.Sprintf("%+.1f%%", (float64(total)/float64(prevTotal)-1)*100)
		}
		fmt.Printf("%-10s %5d %14d %9s %6.1f%%", pt.file.Rev, len(pt.file.Runs), total, delta, util*100)
		for _, s := range solutions {
			fmt.Printf(" %12d", bySol[s])
		}
		fmt.Println()
		prevTotal = total
	}
	return 0
}

// digest hashes the canonical JSON of the deterministic fields (params and
// runs — not rev, not the manifest).
func digest(f File) (string, error) {
	raw, err := json.Marshal(struct {
		Params hetcc.Params `json:"params"`
		Runs   []Run        `json:"runs"`
	}{f.Params, f.Runs})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// writeJSON writes any value as indented JSON (the diff -json artifact).
func writeJSON(path string, v any) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func writeFile(path string, f File) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func readFile(path string) (File, error) {
	var f File
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != Schema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, Schema)
	}
	if f.SchemaVersion != SchemaVersion {
		return f, fmt.Errorf("%s: schema version %d, want %d", path, f.SchemaVersion, SchemaVersion)
	}
	want, err := digest(f)
	if err != nil {
		return f, err
	}
	if f.Digest != want {
		return f, fmt.Errorf("%s: digest mismatch (file %s, computed %s) — edited by hand?", path, f.Digest, want)
	}
	return f, nil
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}
