package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"testing"

	"hetcc/internal/coherence"
)

// runMainEnv marks a re-executed test binary that must run protocheck's
// main() with its command-line arguments instead of the tests.
const runMainEnv = "PROTOCHECK_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// protocheck runs the command with args in a child process and returns its
// stdout and exit code.
func protocheck(t *testing.T, args ...string) ([]byte, int) {
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
		t.Fatalf("protocheck %v: %v\nstderr: %s", args, err, stderr.Bytes())
		return nil, -1
	}
}

// TestDefaultOutputGolden pins the default reduction and defect matrices
// byte for byte.  Regenerate after an intended change with
//
//	go run ./cmd/protocheck > cmd/protocheck/testdata/default.golden
func TestDefaultOutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, code := protocheck(t)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from testdata/default.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExitCodes: every verification failure and bad input exits non-zero;
// sound combinations, coherence-less masters included, exit 0.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown protocol", []string{"-protocols", "MEI,BOGUS"}, 1},
		{"single protocol", []string{"-protocols", "MEI"}, 1},
		{"too many masters", []string{"-protocols", "MEI,MEI,MEI,MEI,MEI"}, 1},
		{"frontier overflow", []string{"-explore", "-max-states", "4"}, 1},
		{"blown budget", []string{"-explore", "-explore-budget", "1ns"}, 1},
		{"unknown dot protocol", []string{"-dot", "BOGUS"}, 1},
		{"4-core scaling mix", []string{"-protocols", "MEI,MESI,MOESI,MSI"}, 0},
		{"coherence-less master", []string{"-protocols", "MESI,NONE"}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, code := protocheck(t, c.args...); code != c.want {
				t.Errorf("protocheck %v: exit %d, want %d", c.args, code, c.want)
			}
		})
	}
}

// TestParseProtocols: -protocols takes 2 to explore.MaxMasters known
// protocol names, in any case, and rejects empty and unknown names.
func TestParseProtocols(t *testing.T) {
	cases := []struct {
		in   string
		want []coherence.Kind // nil: rejected
	}{
		{"mei,none", []coherence.Kind{coherence.MEI, coherence.None}},
		{"MESI,MOESI,MSI,MEI", []coherence.Kind{coherence.MESI, coherence.MOESI, coherence.MSI, coherence.MEI}},
		{"MEI,,MESI", nil},
		{"MEI", nil},
		{"FOO,MEI", nil},
		{"MEI,MESI,MOESI,MSI,MEI", nil},
	}
	for _, c := range cases {
		got, err := parseProtocols(c.in)
		if (err == nil) != (c.want != nil) || fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("parseProtocols(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}
