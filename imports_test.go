package hetcc_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// observerPackages are the instrumentation layers a kernel component could
// reach for instead of emitting event records.
var observerPackages = []string{"metrics", "trace", "profile", "audit", "span", "sharing"}

// TestKernelObserverImports fixes which observer packages each kernel
// package's non-test files may import.  Bus, cache, snoop logic and wrapper
// emit event records only; the cpu still drives its lock and ISR histograms
// directly and makes the stall ledger's two calls per stall episode (Stall
// and Unstall), since no record carries those quantities.  The explorer is
// the proof layer: it shares the copy invariants with the auditor through
// package core and depends on no observer.  Later steps may only shrink
// these lists.
func TestKernelObserverImports(t *testing.T) {
	allowed := map[string][]string{
		"bus":        nil,
		"snooplogic": nil,
		"wrapper":    nil,
		"cache":      nil,
		"cpu":        {"metrics", "profile"},
		"explore":    nil,
	}
	for pkg, allow := range allowed {
		dir := filepath.Join("internal", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := 0
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			files++
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				for _, obs := range observerPackages {
					if path == "hetcc/internal/"+obs && !slices.Contains(allow, obs) {
						t.Errorf("%s/%s imports %s; allowed observer imports: %v", dir, name, path, allow)
					}
				}
			}
		}
		if files == 0 {
			t.Errorf("%s: no non-test Go files", dir)
		}
	}
}
