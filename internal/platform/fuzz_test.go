package platform_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	. "hetcc/internal/platform"
)

// v1Report is a minimal schema-v1 report: the sections later versions
// added are absent.
const v1Report = `{
  "schema": "hetcc.run-report",
  "schema_version": 1,
  "scenario": "WCS",
  "solution": "proposed",
  "platform": ["PowerPC755", "ARM920T"],
  "effective_protocol": "MEI",
  "cycles": 1234,
  "bus_cycles": 617,
  "stop_reason": "all programs retired",
  "deadlocked": false,
  "coherent": true,
  "bus": {"Tenures": 10, "Completed": 9, "Aborted": 1},
  "cores": [
    {"name": "PowerPC755", "cpu": {}, "cache": {}, "wrapper_conversions": 2},
    {"name": "ARM920T", "cpu": {}, "cache": {}, "snoop": {"Hits": 1}, "wrapper_conversions": 0}
  ]
}`

// FuzzReadReport: ReadReport never panics, and a report it accepts is a
// fixed point of WriteReport∘ReadReport — written, read back and written
// again, the bytes do not change.
func FuzzReadReport(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "wcs_report.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(v1Report))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadReport(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteReport(&first, rep); err != nil {
			t.Fatalf("accepted report does not write: %v", err)
		}
		back, err := ReadReport(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written report does not read back: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteReport(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the report:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// fuzzCacheBudget bounds the cache bytes one FuzzSpecsFromJSON input may ask
// Build to allocate: a legitimately huge cache costs its full size, which
// says nothing about the loader and would only exhaust the fuzzer's memory.
const fuzzCacheBudget = 1 << 20

// FuzzSpecsFromJSON: SpecsFromJSON never panics, and every spec list it
// accepts either builds or makes Build return an error.
func FuzzSpecsFromJSON(f *testing.F) {
	for _, seed := range []string{
		sampleJSON,
		`{}`,
		`{"processors": []}`,
		`{"processors": [{"protocol": "WAT"}]}`,
		`{"processors": [{"protocol": "MESI", "cacheKB": 3}]}`,
		`{"processors": [{"protocol": "MESI", "bogusField": 1}]}`,
		`not json`,
		// ways*lineBytes overflows to zero: once a divide-by-zero panic.
		`{"processors": [{"protocol": "MEI", "lineBytes": 4294967296, "ways": 4294967296}]}`,
		`{"processors": [{"protocol": "MESI", "cacheKB": 4, "ways": 2, "lineBytes": 64, "writeThroughShared": true}, {"protocol": "dragon"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := SpecsFromJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		total := 0
		for _, s := range specs {
			if s.Cache.SizeBytes > fuzzCacheBudget-total {
				return
			}
			total += s.Cache.SizeBytes
		}
		p, err := Build(Config{
			Processors: specs,
			Solution:   Proposed,
			Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
		})
		if err == nil && p == nil {
			t.Fatalf("Build returned neither a platform nor an error for %s", strings.TrimSpace(string(data)))
		}
	})
}
