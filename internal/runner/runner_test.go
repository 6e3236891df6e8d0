package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestExecuteOrdered proves the core contract: outcomes land at their task's
// submission index whatever the worker count, even when completion order is
// scrambled.
func TestExecuteOrdered(t *testing.T) {
	const n = 64
	tasks := make([]Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{
			Label: fmt.Sprintf("task-%d", i),
			Run: func() (int, error) {
				// Earlier tasks sleep longer, so completion order is roughly
				// the reverse of submission order.
				time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
				return i * i, nil
			},
		}
	}
	for _, jobs := range []int{1, 2, 8, n + 5} {
		out := Execute(tasks, Options{Jobs: jobs})
		if len(out) != n {
			t.Fatalf("jobs=%d: got %d outcomes, want %d", jobs, len(out), n)
		}
		for i, o := range out {
			if o.Value != i*i || o.Err != nil {
				t.Fatalf("jobs=%d: outcome %d = {value %d, err %v}, want {%d, nil}",
					jobs, i, o.Value, o.Err, i*i)
			}
			if o.Label != fmt.Sprintf("task-%d", i) {
				t.Fatalf("jobs=%d: outcome %d label %q", jobs, i, o.Label)
			}
		}
	}
}

// TestExecuteConcurrency checks the pool actually runs tasks concurrently and
// never exceeds the configured worker count.
func TestExecuteConcurrency(t *testing.T) {
	const jobs = 4
	var active, peak atomic.Int32
	tasks := make([]Task[struct{}], 32)
	for i := range tasks {
		tasks[i] = Task[struct{}]{
			Label: "t",
			Run: func() (struct{}, error) {
				cur := active.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				active.Add(-1)
				return struct{}{}, nil
			},
		}
	}
	Execute(tasks, Options{Jobs: jobs})
	if p := peak.Load(); p > jobs {
		t.Fatalf("peak concurrency %d exceeds jobs=%d", p, jobs)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("peak concurrency %d: pool did not run tasks in parallel", p)
	}
}

// TestExecutePanicCapture: a panicking task fails only itself, with the
// panic value and stack preserved.
func TestExecutePanicCapture(t *testing.T) {
	tasks := []Task[int]{
		{Label: "ok-0", Run: func() (int, error) { return 1, nil }},
		{Label: "boom", Run: func() (int, error) { panic("kaboom") }},
		{Label: "ok-2", Run: func() (int, error) { return 3, nil }},
	}
	out := Execute(tasks, Options{Jobs: 2})
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("sibling tasks failed: %v / %v", out[0].Err, out[2].Err)
	}
	var pe *PanicError
	if !errors.As(out[1].Err, &pe) {
		t.Fatalf("outcome 1 error = %v, want *PanicError", out[1].Err)
	}
	if pe.Value != "kaboom" || pe.Label != "boom" || pe.Stack == "" {
		t.Fatalf("panic error = {%q %v stack:%d bytes}", pe.Label, pe.Value, len(pe.Stack))
	}
}

// TestExecuteErrorIsolation: an ordinary task error is reported at its
// index, whatever the worker count.
func TestExecuteErrorIsolation(t *testing.T) {
	errA := errors.New("a failed")
	errB := errors.New("b failed")
	tasks := []Task[int]{
		{Label: "ok", Run: func() (int, error) { return 0, nil }},
		{Label: "a", Run: func() (int, error) { time.Sleep(5 * time.Millisecond); return 0, errA }},
		{Label: "b", Run: func() (int, error) { return 0, errB }},
	}
	for _, jobs := range []int{1, 3} {
		out := Execute(tasks, Options{Jobs: jobs})
		if out[0].Err != nil || !errors.Is(out[1].Err, errA) || !errors.Is(out[2].Err, errB) {
			t.Fatalf("jobs=%d: errors %v / %v / %v, want nil / errA / errB", jobs, out[0].Err, out[1].Err, out[2].Err)
		}
	}
}

func TestExecuteEmpty(t *testing.T) {
	if out := Execute[int](nil, Options{}); len(out) != 0 {
		t.Fatalf("empty batch produced %d outcomes", len(out))
	}
}

// TestDeriveSeed: pure, position-dependent, never zero.
func TestDeriveSeed(t *testing.T) {
	seen := make(map[uint64]int)
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(42, i)
		if s == 0 {
			t.Fatalf("DeriveSeed(42, %d) = 0", i)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed collision: indices %d and %d", j, i)
		}
		seen[s] = i
		if s != DeriveSeed(42, i) {
			t.Fatalf("DeriveSeed(42, %d) not deterministic", i)
		}
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("different bases produced identical seeds")
	}
}

func TestCombineDigestsOrderSensitive(t *testing.T) {
	a := CombineDigests([]string{"x", "y"})
	b := CombineDigests([]string{"y", "x"})
	if a == b {
		t.Fatal("CombineDigests ignores order")
	}
	if a != CombineDigests([]string{"x", "y"}) {
		t.Fatal("CombineDigests not deterministic")
	}
	// The separator must prevent boundary ambiguity.
	if CombineDigests([]string{"xy"}) == CombineDigests([]string{"x", "y"}) {
		t.Fatal("CombineDigests is ambiguous across element boundaries")
	}
}
