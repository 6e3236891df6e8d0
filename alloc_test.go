package hetcc

import "testing"

// buildAllocsBound pins the allocations of one Build of the PF2 WCS
// platform with 32-line programs, plus a small margin.  Measured: 103 with
// Go 1.24, and 103 with Go 1.24 under GOEXPERIMENT=noswissmap, the map
// runtime of Go 1.22 and earlier.  Before exact-size programs and slab caches it was about 1800,
// almost all program regrowth and one allocation per cache line.
const buildAllocsBound = 112

func TestAllocsBuild(t *testing.T) {
	cfg := Config{Scenario: WCS, Solution: Proposed, Params: Params{Lines: 32}, Verify: true}
	n := testing.AllocsPerRun(20, func() {
		if _, err := Build(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Build: %.0f allocs (bound %d)", n, buildAllocsBound)
	if n > buildAllocsBound {
		t.Fatalf("Build allocates %.0f times, bound %d", n, buildAllocsBound)
	}
}
