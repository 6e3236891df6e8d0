package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"hetcc"
	"hetcc/internal/platform"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/chrometrace_digests.json and testdata/spans_digests.json")

// runMainEnv marks a re-executed test binary that must run hetccsim's main()
// with its command-line arguments instead of the tests.
const runMainEnv = "HETCCSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// hetccsim runs the command with args in a child process and returns its
// stdout and exit code.
func hetccsim(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.Bytes(), 0
	case errors.As(err, &exit):
		return stdout.Bytes(), exit.ExitCode()
	default:
		t.Fatalf("hetccsim %v: %v\nstderr: %s", args, err, stderr.Bytes())
		return nil, -1
	}
}

// chromeTraceRuns are the Chrome-trace golden's runs: WCS under the
// proposed solution on the three case-study platforms, plus the PF2 cached
// test-and-set run that ends in the paper's hardware deadlock (exit 1).
var chromeTraceRuns = []struct {
	label string
	args  []string
	exit  int
}{
	{"pf1/WCS/proposed", []string{"-platform", "arm-arm", "-scenario", "wcs", "-solution", "proposed"}, 0},
	{"pf2/WCS/proposed", []string{"-platform", "ppc-arm", "-scenario", "wcs", "-solution", "proposed"}, 0},
	{"pf3/WCS/proposed", []string{"-platform", "ppc-i486", "-scenario", "wcs", "-solution", "proposed"}, 0},
	{"pf2/WCS/proposed/cached-tas", []string{"-platform", "ppc-arm", "-scenario", "wcs", "-solution", "proposed", "-lock", "cached-tas"}, 1},
}

// TestChromeTraceGolden pins the -chrometrace file and the -spans JSONL
// (the txn and stall rows) byte for byte, as a SHA-256 per run in
// testdata/chrometrace_digests.json and testdata/spans_digests.json that
// both schedulers must give.
// Regenerate after an intended change with
//
//	go test ./cmd/hetccsim -run TestChromeTraceGolden -update
func TestChromeTraceGolden(t *testing.T) {
	goldens := []struct {
		file, flag string
		got        map[string]map[string]string
	}{
		{"chrometrace_digests.json", "-chrometrace", map[string]map[string]string{}},
		{"spans_digests.json", "-spans", map[string]map[string]string{}},
	}
	for _, scheduler := range []string{platform.SchedulerEvent, platform.SchedulerTick} {
		for _, g := range goldens {
			g.got[scheduler] = map[string]string{}
		}
		for _, run := range chromeTraceRuns {
			dir := t.TempDir()
			args := append(append([]string{}, run.args...), "-scheduler", scheduler)
			for _, g := range goldens {
				args = append(args, g.flag, filepath.Join(dir, g.file))
			}
			if _, code := hetccsim(t, args...); code != run.exit {
				t.Fatalf("%s %s: exit %d, want %d", scheduler, run.label, code, run.exit)
			}
			for _, g := range goldens {
				raw, err := os.ReadFile(filepath.Join(dir, g.file))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(raw)
				g.got[scheduler][run.label] = hex.EncodeToString(sum[:])
			}
		}
	}
	for _, g := range goldens {
		checkDigests(t, filepath.Join("testdata", g.file), g.got)
	}
}

// checkDigests requires the digests of every scheduler in got (scheduler →
// run label → hex SHA-256) to equal the golden file, which maps run label →
// digest.  Under -update they must equal the tick scheduler's instead, which
// then rewrite the file.
func checkDigests(t *testing.T, golden string, got map[string]map[string]string) {
	t.Helper()
	wantName, want := "tick", got[platform.SchedulerTick]
	if !*updateGolden {
		raw, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		wantName, want = "golden", nil
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("parse %s: %v", golden, err)
		}
	}
	for scheduler, runs := range got {
		if len(runs) != len(want) {
			t.Errorf("%s %s: %d runs, %s pins %d", golden, scheduler, len(runs), wantName, len(want))
		}
		for label, d := range runs {
			if w := want[label]; d != w {
				t.Errorf("%s %s %s: digest %s, %s %s", golden, scheduler, label, d, wantName, w)
			}
		}
	}
	if !*updateGolden || t.Failed() {
		return
	}
	raw, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", golden)
}

// TestExitCodes: bad input and an unwritable output exit 2, a run that ends
// abnormally (the hardware deadlock) exits 1.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown scenario", []string{"-scenario", "banana"}, 2},
		{"unwritable vcd", []string{"-vcd", "/dev/full"}, 2},
		{"cached-tas deadlock", []string{"-platform", "ppc-arm", "-lock", "cached-tas"}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, code := hetccsim(t, c.args...); code != c.want {
				t.Errorf("hetccsim %v: exit %d, want %d", c.args, code, c.want)
			}
		})
	}
}

func TestParseScenario(t *testing.T) {
	cases := map[string]hetcc.Scenario{
		"wcs": hetcc.WCS, "WCS": hetcc.WCS, "worst": hetcc.WCS,
		"tcs": hetcc.TCS, "typical": hetcc.TCS,
		"bcs": hetcc.BCS, "best": hetcc.BCS,
	}
	for in, want := range cases {
		got, err := parseScenario(in)
		if err != nil || got != want {
			t.Errorf("parseScenario(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseScenario("nope"); err == nil {
		t.Error("bad scenario accepted")
	}
}

func TestParseSolution(t *testing.T) {
	cases := map[string]hetcc.Solution{
		"disabled": hetcc.CacheDisabled, "nocache": hetcc.CacheDisabled,
		"software": hetcc.Software, "sw": hetcc.Software,
		"proposed": hetcc.Proposed, "wrapper": hetcc.Proposed,
	}
	for in, want := range cases {
		got, err := parseSolution(in)
		if err != nil || got != want {
			t.Errorf("parseSolution(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseSolution("nope"); err == nil {
		t.Error("bad solution accepted")
	}
}

func TestParsePlatform(t *testing.T) {
	for _, in := range []string{"ppc-arm", "pf2", "ppc-i486", "pf3", "arm-arm", "pf1"} {
		specs, err := parsePlatform(in)
		if err != nil || len(specs) != 2 {
			t.Errorf("parsePlatform(%q): %v, %d specs", in, err, len(specs))
		}
	}
	if _, err := parsePlatform("nope"); err == nil {
		t.Error("bad platform accepted")
	}
}

func TestParseLock(t *testing.T) {
	cases := map[string]platform.LockKind{
		"uncached-tas": platform.LockUncachedTAS,
		"tas":          platform.LockUncachedTAS,
		"hw-register":  platform.LockHardwareRegister,
		"bakery":       platform.LockBakery,
		"cached-tas":   platform.LockCachedTAS,
		"peterson":     platform.LockPeterson,
	}
	for in, want := range cases {
		got, err := parseLock(in)
		if err != nil || got != want {
			t.Errorf("parseLock(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseLock("nope"); err == nil {
		t.Error("bad lock accepted")
	}
}
