package lock

import "testing"

// TestAllocsLock: a warmed manager hands each task the same acquire and
// release steppers for every critical section, so a lock operation of any
// kind, with and without alternation, allocates nothing (`make allocs`).
func TestAllocsLock(t *testing.T) {
	for _, kind := range []Kind{UncachedTAS, HardwareRegister, Bakery, CachedTAS, Peterson} {
		for _, alternate := range []bool{false, true} {
			m := mgr(t, kind, 2, alternate)
			in := newInterp()
			section := func() {
				for task := 0; task < 2; task++ {
					in.runToCompletion(t, m.Acquire(task, 0), 100)
					in.runToCompletion(t, m.Release(task, 0), 100)
				}
			}
			section() // warm the interpreter's memory map
			if avg := testing.AllocsPerRun(100, section); avg != 0 {
				t.Errorf("%v alternate=%v: %.1f allocs per critical section pair, want 0", kind, alternate, avg)
			}
		}
	}
}
