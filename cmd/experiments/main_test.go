package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv marks a re-executed test binary that must run experiments'
// main() with its command-line arguments instead of the tests.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// experiments runs the command with args in a child process and returns its
// stdout and exit code.
func experiments(t *testing.T, args ...string) ([]byte, int) {
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
		t.Fatalf("experiments %v: %v\nstderr: %s", args, err, stderr.Bytes())
		return nil, -1
	}
}

// TestFiguresGolden pins the published outputs under docs/figures/ byte for
// byte: they are the goldens, with no second copy.  The sweeps also run on
// the tick reference scheduler with one worker, which must print the same.
// Regenerate a file after an intended change with the command its row runs,
// e.g.
//
//	go run ./cmd/experiments -fig 5 -format csv > docs/figures/figure5.csv
func TestFiguresGolden(t *testing.T) {
	cases := []struct {
		file string
		args []string
	}{
		{"figure5.csv", []string{"-fig", "5", "-format", "csv"}},
		{"figure6.csv", []string{"-fig", "6", "-format", "csv"}},
		{"figure7.csv", []string{"-fig", "7", "-format", "csv"}},
		{"figure8.csv", []string{"-fig", "8", "-format", "csv"}},
		{"table1.csv", []string{"-table", "1", "-format", "csv"}},
		{"table2.txt", []string{"-table", "2"}},
		{"table3.txt", []string{"-table", "3"}},
		{"table4.csv", []string{"-table", "4", "-format", "csv"}},
		{"sensitivity.txt", []string{"-sweep", "all"}},
		{"sensitivity.txt", []string{"-sweep", "all", "-scheduler", "tick", "-jobs", "1"}},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "docs", "figures", c.file))
			if err != nil {
				t.Fatal(err)
			}
			got, code := experiments(t, c.args...)
			if code != 0 {
				t.Fatalf("exit %d, want 0", code)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from docs/figures/%s\ngot:\n%s\nwant:\n%s", c.file, got, want)
			}
		})
	}
}

// TestExitCodes: bad input exits 1 with nothing on stdout, before anything
// runs; a valid request exits 0.
func TestExitCodes(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown format", []string{"-format", "bogus"}, 1},
		{"figure out of range", []string{"-fig", "9"}, 1},
		{"table out of range", []string{"-table", "5"}, 1},
		{"unknown platform", []string{"-platform", "pf9"}, 1},
		{"unknown sweep", []string{"-sweep", "bogus"}, 1},
		{"sweep on pf3", []string{"-sweep", "isr", "-platform", "pf3"}, 1},
		{"unwritable report", []string{"-report", filepath.Join(t.TempDir(), "missing", "x.json"), "-fig", "5"}, 1},
		{"report without figure: table", []string{"-report", report, "-table", "4"}, 1},
		{"report without figure: sweep", []string{"-report", report, "-sweep", "isr"}, 1},
		{"report without figure: sharing", []string{"-report", report, "-sharing"}, 1},
		{"one table", []string{"-table", "1"}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stdout, code := experiments(t, c.args...)
			if code != c.want {
				t.Errorf("experiments %v: exit %d, want %d", c.args, code, c.want)
			}
			if code != 0 && len(stdout) != 0 {
				t.Errorf("experiments %v: failed after printing\n%s", c.args, stdout)
			}
		})
	}
}
